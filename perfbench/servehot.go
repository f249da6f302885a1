package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/obs"
)

// scaled sizes an input by the -scale flag, never below lo.
func scaled(o *opts, n, lo int) int { return max(lo, int(math.Round(float64(n)*o.scale))) }

// hotCorpus is serve-hot's corpus: planted C4 and C6 hosts, a C4-free
// projective plane and a high-girth graph.
func hotCorpus(o *opts) []*inst {
	rng := newRNG(o.seed, 1)
	n := scaled(o, 1000, 40)
	c4 := plant(rng, highGirth(rng, "planted-c4", n, 3*n/2, 5), 4)
	c6 := plant(rng, highGirth(rng, "planted-c6", n, 13*n/10, 7), 6)
	q := 13
	if o.scale < 1 {
		q = 5
	}
	return []*inst{c4, c6, projectivePlane("pg-13", q), highGirth(rng, "girth-7", n, 13*n/10, 7)}
}

// hotRequests is the distinct request set: det at k=2 and 3, and even
// at k=2 with a fixed seed and budget, on every corpus graph.
func hotRequests(o *opts, corpus []*inst) []*detectReq {
	var reqs []*detectReq
	for _, in := range corpus {
		reqs = append(reqs,
			newDetectReq(in, true, "det", 2, 0, 0),
			newDetectReq(in, true, "det", 3, 0, 0),
			newDetectReq(in, true, "even", 2, o.seed, 8))
	}
	return reqs
}

// serveSetup spawns a server and brings it to ready: healthy, corpus
// created through the API, and every distinct request served once. It
// returns the server, the set-up seconds and the warm-up tally.
func serveSetup(o *opts, gt *gate, conns int, corpus []*inst, warm []*detectReq, flags ...string) (*server, float64, []served, error) {
	t0 := time.Now()
	s, err := startServer(o.server, conns, flags...)
	if err != nil {
		return nil, 0, nil, err
	}
	for _, in := range corpus {
		if _, err := s.createCorpus(in); err != nil {
			s.stop()
			return nil, 0, nil, err
		}
	}
	var out []served
	for _, r := range warm {
		sv, err := s.detect(gt, r, false, time.Now())
		if err == nil && !sv.ok {
			err = fmt.Errorf("warm-up request %s/%s/k=%d failed", r.graph, r.algo, r.k)
		}
		if err != nil {
			s.stop()
			return nil, 0, nil, err
		}
		out = append(out, sv)
	}
	return s, time.Since(t0).Seconds(), out, nil
}

// A run sets its system up at least setupRepeats times and until the
// set-ups have taken setupSeconds, at most maxSetups times; setup_s is
// the median. Cheap set-ups so repeat more, and every workload's median
// rests on about a second of set-ups.
const (
	setupRepeats = 9
	setupSeconds = 1.0
	maxSetups    = 64
)

// repeatSetup runs setup as often as the constants above say, keeping
// the last system. Each set-up starts from a collected heap, so that
// garbage the previous one left does not fall to the collector inside
// the next one's timing.
func repeatSetup(rep *report, setup func() (float64, error), teardown func()) error {
	var secs []float64
	total := 0.0
	for {
		runtime.GC()
		s, err := setup()
		if err != nil {
			return err
		}
		secs = append(secs, s)
		total += s
		if len(secs) >= setupRepeats && total >= setupSeconds || len(secs) == maxSetups {
			break
		}
		teardown()
	}
	rep.setE2E("setup_s", median(secs), "s")
	rep.note("setup_s: median of %d set-ups, from %.4f to %.4f s", len(secs), slices.Min(secs), slices.Max(secs))
	return nil
}

// modelCost reports the paper's cost of the computed verdicts.
func modelCost(rep *report, vs []*verdict) {
	var rounds, msgs []float64
	for _, v := range vs {
		rounds = append(rounds, float64(v.Rounds))
		msgs = append(msgs, float64(v.Messages))
	}
	rep.setE2E("model_rounds", mean(rounds), "rounds")
	rep.setE2E("model_messages", mean(msgs), "msgs")
}

func runServeHot(o *opts, rep *report) error {
	corpus := hotCorpus(o)
	reqs := hotRequests(o, corpus)
	gt := newGate()
	for _, in := range corpus {
		gt.register(in)
		in.hasCycle(4)
		in.hasCycle(6)
	}
	// One keep-alive connection: on a 2-vCPU guest, a second one puts
	// client and server on both vCPUs at once, and throughput then
	// follows the host's load more than the program.
	const conns = 1
	var s *server
	var warm []served
	var pk peaks
	defer func() { s.stop() }()
	err := repeatSetup(rep, func() (float64, error) {
		var secs float64
		var err error
		s, secs, warm, err = serveSetup(o, gt, conns, corpus, reqs)
		if err == nil {
			err = pk.add(s)
		}
		return secs, err
	}, func() { s.stop() })
	if err != nil {
		return err
	}
	var computed []*verdict
	for _, sv := range warm {
		computed = append(computed, sv.v)
	}
	modelCost(rep, computed)

	pass := func(traced bool, seedStream uint64, until time.Time) (*tally, error) {
		t := newTally()
		rng := newRandIdx(o.seed, seedStream)
		clock := startStealClock()
		err := closedLoop(conns, until, func(_ int, due time.Time) error {
			sv, err := s.detect(gt, reqs[rng.next(len(reqs))], traced, due)
			t.add(sv)
			return err
		})
		clock.finish()
		t.clock = clock
		return t, err
	}
	// An unmeasured second of the same load brings both processes to
	// steady state before the measured pass.
	if _, err := pass(false, 30, time.Now().Add(time.Second)); err != nil {
		return err
	}
	t, err := pass(false, 10, o.deadline())
	if err != nil {
		return err
	}
	t.endToEnd(rep, true)
	hits := float64(t.sources["cache"]) / math.Max(1, float64(len(t.lat)))
	rep.note("cache-hit share after warm-up %.4f (want >= 0.99)", hits)
	if err := finishServe(rep, gt, s, &pk); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	t.loadLayers(rep)
	tt, err := pass(true, 10, o.deadline())
	if err != nil {
		return err
	}
	if _, err := serverLayers(rep, s); err != nil {
		return err
	}
	tt.serverLedger(rep, median(t.lat))
	replayGraphs(rep, corpus)
	svc := newReplayService(serviceDefaults())
	for _, in := range corpus {
		if err := svc.RegisterGraph(in.name, in.graphOf()); err != nil {
			return err
		}
	}
	stream := make([]*detectReq, 0, 2000)
	idx := newRandIdx(o.seed, 10)
	for range 2000 {
		stream = append(stream, reqs[idx.next(len(reqs))])
	}
	return replayDetects(rep, svc, append(reqs, stream...))
}

// serverLayers scrapes a fresh server's counters at the end of a traced
// run (its counters started at zero when it was spawned) and returns the
// scrape.
func serverLayers(rep *report, s *server) (*obs.Exposition, error) {
	exp, err := s.scrape()
	if err != nil {
		return nil, err
	}
	var st stats
	if err := s.getJSON("/v1/stats", &st); err != nil {
		return nil, err
	}
	return exp, engineLayers(rep, exp, st)
}

// finishServe reports the servers' peak RSS and the gate's miss rate.
func finishServe(rep *report, gt *gate, s *server, pk *peaks) error {
	if err := pk.report(rep, s); err != nil {
		return err
	}
	rate, with := gt.missRate()
	rep.setE2E("miss_rate", rate, "ratio")
	rep.note("miss_rate base: %d distinct queries whose graph holds the target cycle", with)
	return nil
}
