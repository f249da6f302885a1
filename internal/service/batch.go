package service

import (
	"context"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// The batched miss path. Concurrent cache misses whose parameters are
// compatible (same algo / k / threshold / ε / schedule — everything but
// the graph, seed and budget) are collected by a sched.Batcher and run as
// ONE fused engine session on the disjoint union of their graphs (the
// detector table's fused run, e.g. core.DetectEvenCycleFused). The fused run
// is transcript-equivalent per component to a solo run, so each
// component's verdict is cached under its own fingerprint exactly as if
// it had been computed alone: a batch of B misses seeds B cache entries
// for the price of one session.

// compatKey is the batch compatibility key: requests agreeing on it may
// share one fused session. Graph, seed and trial budget are deliberately
// absent — they are per-component inputs of the fused run. The knobs a
// detector ignores are already zeroed by validate.
type compatKey struct {
	det       *detector
	k         int
	threshold int
	eps       float64
	pipelined bool
}

// fuseItem is one miss-path request travelling through the batcher.
type fuseItem struct {
	req   *Request
	key   cacheKey
	prior *entry
	// enqueued is when the item entered the batcher, set only on timed
	// requests (observed service or per-request trace); the batch leader
	// measures the linger stage against it. Zero when untimed.
	enqueued time.Time
}

// fuseOut is one item's outcome. Item-level errors ride here rather than
// on the batch, so one pathological component cannot poison its
// batchmates' verdicts.
type fuseOut struct {
	resp      *Response
	amplified bool
	err       error
}

// fuseSeedSalt derives the seed a randomized detector actually runs with
// from (request seed, graph fingerprint). Mixing the fingerprint in
// decorrelates the per-component randomness of batchmates that share a
// request seed, and applying the same derivation on the solo path keeps
// cached verdicts serve-path-independent: the same request computes the
// same response whether it was fused or ran alone.
const fuseSeedSalt = 0xf5eed

// runSeed is the seed the detector runs with for this request (seedless
// detectors ignore it).
func runSeed(req *Request, fp graph.Fingerprint) uint64 {
	return sched.Tag(req.Seed, fuseSeedSalt, fp[0], fp[1])
}

// execBatch computes one dispatched batch. It holds ONE admission slot
// for the whole batch (that is the point: B requests, one session's
// worth of pool pressure) and acquires it without a caller context — a
// batch that formed always runs, even if every waiter has gone away,
// because its verdicts are cached.
func (s *Service) execBatch(ck compatKey, items []*fuseItem) ([]fuseOut, error) {
	// The batch is timed when the service observes or any rider opted
	// into a trace; the leader then stamps the shared stage durations
	// (queue wait, engine) into every rider's trace and the linger each
	// rider individually accrued before dispatch.
	timed := s.observe
	for _, it := range items {
		if it.req.Trace != nil {
			timed = true
		}
	}
	var tq time.Time
	if timed {
		tq = time.Now()
	}
	if err := s.gate.Acquire(context.Background()); err != nil {
		return nil, err
	}
	defer s.gate.Release()
	var queueWait time.Duration
	if timed {
		queueWait = time.Since(tq)
	}
	// Count a leader crash exactly once here, then let it unwind into
	// the Batcher's dispatch fence: the deferred Release above runs
	// first (no leaked slot), the fence wakes every waiter with a
	// PanicError (no hang), and since this function never reached its
	// cache-put, no poisoned entry exists.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			panic(r)
		}
	}()
	if faultpoint.Enabled() {
		faultpoint.Crash(faultpoint.BatchLeaderCrash)
	}
	start := time.Now()

	B := len(items)
	s.batchesFormed.Add(1)
	s.batchSizeSum.Add(int64(B))
	s.maxBatchSize.Max(int64(B))

	var outs []fuseOut
	if B == 1 {
		// Degenerate batch: the existing solo path, one session. The
		// detached context keeps the batch contract — a batch that
		// formed runs to completion and caches, even if its waiter left.
		resp, amplified, err := s.compute(context.Background(), items[0].req, items[0].key, items[0].prior)
		outs = []fuseOut{{resp: resp, amplified: amplified, err: err}}
		s.soloSessions.Add(1)
	} else {
		outs = s.runFused(ck, items)
	}

	engineDur := time.Since(start)
	s.noteSessionDuration(engineDur)
	if timed {
		// Each rider spent the shared queue-wait and engine time, plus
		// its own pre-dispatch linger; the cache-install stage is stamped
		// by DoInfo on the rider's own return path. noteStage tolerates a
		// nil trace (histogram-only) and an armed-but-untraced rider.
		for _, it := range items {
			if !s.observe && it.req.Trace == nil {
				continue
			}
			if !it.enqueued.IsZero() {
				s.noteStage(it.req.Trace, obs.StageBatchLinger, tq.Sub(it.enqueued))
			}
			s.noteStage(it.req.Trace, obs.StageQueueWait, queueWait)
			s.noteStage(it.req.Trace, obs.StageEngine, engineDur)
		}
	}

	// Cache every component's verdict under its own fingerprint — here,
	// not in Do, so verdicts of waiters that gave up are kept too.
	s.mu.Lock()
	for i, it := range items {
		if outs[i].err == nil {
			s.cache.put(it.key, &entry{resp: outs[i].resp, budget: it.req.Iterations})
		}
	}
	s.mu.Unlock()
	return outs, nil
}

// runFused runs a batch as one fused session of its detector.
// Amplification composes per item: a component with a cached not-found
// budget B runs only its missing trials, on the same continuation seed
// the solo path would use.
func (s *Service) runFused(ck compatKey, items []*fuseItem) []fuseOut {
	B := len(items)
	rs := make([]run, B)
	resps := make([]*Response, B)
	for i, it := range items {
		rs[i] = s.runFor(it.req, it.key.fp, it.prior)
		resps[i] = &Response{Algo: it.req.Algo, K: it.req.K, Fingerprint: it.key.fp.String()}
	}
	if err := ck.det.fused(rs, resps); err != nil {
		// A component the fused path cannot represent (e.g. a graph too
		// small to parameterize) fails the whole call before any engine
		// work; re-running the batch solo localizes the error to its item.
		return s.runSoloFallback(items)
	}
	s.fusedSessions.Add(1)
	s.fusedRequests.Add(int64(B))
	outs := make([]fuseOut, B)
	for i, it := range items {
		outs[i] = fuseOut{resp: resps[i], amplified: accumulate(resps[i], it.prior)}
	}
	return outs
}

// runSoloFallback computes each item alone (still under the batch's one
// admission slot), isolating per-item errors.
func (s *Service) runSoloFallback(items []*fuseItem) []fuseOut {
	outs := make([]fuseOut, len(items))
	for i, it := range items {
		resp, amplified, err := s.compute(context.Background(), it.req, it.key, it.prior)
		outs[i] = fuseOut{resp: resp, amplified: amplified, err: err}
		if err == nil {
			s.soloSessions.Add(1)
		}
	}
	return outs
}
