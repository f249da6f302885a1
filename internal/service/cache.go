package service

import (
	"container/list"

	"repro/internal/graph"
)

// cacheKey identifies one cached verdict: the batch compatibility key
// (detector, k and the verdict knobs), the fingerprint pinning the graph
// structure, and the seed. Iterations are deliberately absent: the entry
// records the budget it has accumulated, so requests with different
// budgets share an entry (see entry.serves). The knobs a detector
// ignores — for the deterministic detector the seed as well — are
// zeroed by validate, so they cannot split entries.
type cacheKey struct {
	compatKey
	fp   graph.Fingerprint
	seed uint64
}

// keyFor builds the cache key of a validated request.
func keyFor(req *Request, d *detector, fp graph.Fingerprint) cacheKey {
	return cacheKey{
		compatKey: compatKey{det: d, k: req.K, threshold: req.Threshold, eps: req.Eps, pipelined: req.Pipelined},
		fp:        fp,
		seed:      req.Seed,
	}
}

// entry is one cached verdict plus its accumulated trial budget.
type entry struct {
	resp *Response
	// budget is the cumulative number of randomized trials this entry has
	// exhausted without a detection; meaningless once resp.Found, and 0
	// for seedless detectors.
	budget int
	// warmed marks an entry seeded by the corpus warm-start path at
	// mutation time rather than by a request; hits on it count as
	// warm_hits.
	warmed bool
}

// serves reports whether the entry can answer a request for `iterations`
// trials without any computation: always for permanent Found verdicts,
// otherwise only when the accumulated not-found budget covers the
// request. Seedless detectors request (and record) a zero budget, so
// their entries always serve.
func (e *entry) serves(iterations int) bool {
	return e.resp.Found || iterations <= e.budget
}

// lru is a size-bounded LRU map from cacheKey to entry. Not safe for
// concurrent use; the Service guards it with its own mutex.
type lru struct {
	cap   int
	ll    *list.List // front = most recent; values are *lruItem
	items map[cacheKey]*list.Element
}

type lruItem struct {
	key cacheKey
	ent *entry
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), items: make(map[cacheKey]*list.Element, capacity)}
}

// get returns the entry for key (marking it most-recently-used) or nil.
func (c *lru) get(key cacheKey) *entry {
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).ent
}

// peek returns the entry for key WITHOUT touching recency — the warm-start
// path probes for existing child entries and must not promote them.
func (c *lru) peek(key cacheKey) *entry {
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	return el.Value.(*lruItem).ent
}

// put inserts or replaces the entry for key, evicting the least-recently
// used entry when over capacity.
func (c *lru) put(key cacheKey, ent *entry) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).ent = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, ent: ent})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
	}
}

// len returns the number of cached entries.
func (c *lru) len() int { return c.ll.Len() }
