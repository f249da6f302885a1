package service

import (
	"context"

	"repro/internal/graph"
)

// Mutation reports one AddCorpusEdges call: the installed graph value and
// the parent→child fingerprint edge the mutation created in the corpus
// lineage, plus what the warm-start machinery did for it.
type Mutation struct {
	// Graph is the corpus value after the mutation (the parent graph
	// itself when Noop).
	Graph *graph.Graph
	// Parent and Child are the fingerprints before and after; equal when
	// Noop. The pair is also surfaced in Stats so operators can follow
	// the lineage without holding mutation responses.
	Parent graph.Fingerprint
	Child  graph.Fingerprint
	// Noop reports that every added edge was already present (or a
	// self-loop): nothing was journaled, cached or re-fingerprinted.
	Noop bool
	// WarmStarts is the number of cached parent verdicts carried to the
	// child fingerprint by this mutation; Fallbacks counts how many of
	// those needed a full re-detection because localization failed.
	WarmStarts int
	Fallbacks  int
}

// warmChild carries the parent graph's cached verdicts of detectors with
// a recheck run (the deterministic one) to the child fingerprint, so the
// first detection after a mutation is a cache hit instead of a full cold
// run. Three paths, in order of cost:
//
//   - a cached Found survives edge addition verbatim (adding edges never
//     destroys a cycle); the witness is re-verified against the child and
//     the entry is re-keyed,
//   - a cached NotFound triggers the detector's recheck: for det,
//     incr.Recheck runs only on the radius-2k ball around the added
//     endpoints,
//   - when the recheck reports Fallback, a full detection runs under a
//     normal admission slot — still at mutation time, so the verdict
//     cache is warm either way.
//
// Warm entries are marked, and hits on them surface as warm_hits. Costs
// in a warmed response describe the work that actually produced it (the
// parent session for a carried Found, the localized session for a
// recheck), mirroring how amplified entries report serve-history cost.
func (s *Service) warmChild(parent, child *graph.Graph, added [][2]graph.NodeID) (warms, fallbacks int) {
	pfp, cfp := parent.Fingerprint(), child.Fingerprint()
	type cand struct {
		key  cacheKey
		resp *Response
	}
	var cands []cand
	s.mu.Lock()
	for key, el := range s.cache.items {
		if key.det.recheck != nil && key.fp == pfp {
			cands = append(cands, cand{key, el.Value.(*lruItem).ent.resp})
		}
	}
	s.mu.Unlock()
	for _, c := range cands {
		childKey := c.key
		childKey.fp = cfp
		s.mu.Lock()
		_, busy := s.inflight[childKey]
		exists := s.cache.peek(childKey) != nil
		s.mu.Unlock()
		if busy || exists {
			continue
		}
		var resp *Response
		if c.resp.Found {
			if graph.IsSimpleCycle(child, c.resp.Witness, len(c.resp.Witness)) != nil {
				continue // cannot happen for pure edge addition; never warm unverified
			}
			resp = rekeyResponse(c.resp, cfp)
		} else {
			// The key holds every knob of the request that produced it.
			req := &Request{Graph: child, Algo: c.key.det.algo, K: c.key.k, Seed: c.key.seed,
				Threshold: c.key.threshold, Eps: c.key.eps, Pipelined: c.key.pipelined}
			resp = &Response{Algo: req.Algo, K: req.K, Fingerprint: cfp.String()}
			r := s.runFor(req, cfp, nil)
			fallback, err := c.key.det.recheck(&r, added, resp)
			if err != nil {
				continue
			}
			if fallback {
				// Localization failed: an ordinary full detection, taking a
				// normal admission slot so warm work cannot oversubscribe
				// the pool past Config.Slots.
				fallbacks++
				if resp, _, err = s.soloSlot(context.Background(), req, childKey, nil, false); err != nil {
					continue
				}
			}
		}
		warms++
		s.mu.Lock()
		if _, busy := s.inflight[childKey]; !busy && s.cache.peek(childKey) == nil {
			s.cache.put(childKey, &entry{resp: resp, warmed: true})
		}
		s.mu.Unlock()
	}
	return warms, fallbacks
}

// rekeyResponse clones a cached response under a new fingerprint. The
// witness is copied: parent and child entries must not share mutable
// backing storage.
func rekeyResponse(p *Response, fp graph.Fingerprint) *Response {
	resp := *p
	resp.Fingerprint = fp.String()
	if p.Witness != nil {
		resp.Witness = append([]graph.NodeID(nil), p.Witness...)
	}
	return &resp
}

// noteLineage records the most recent parent→child fingerprint edge for
// Stats.
func (s *Service) noteLineage(parent, child graph.Fingerprint) {
	s.lineageMu.Lock()
	s.lastParent, s.lastChild = parent, child
	s.lineageMu.Unlock()
}
