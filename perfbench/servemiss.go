package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// missRates are serve-miss's fixed Poisson arrival rates (requests per
// second), run in order for an equal share of the run each.
var missRates = []float64{50, 100, 200}

// missLimitMS is serve-miss's latency limit: a request meets the SLO
// when it returns 2xx within this many milliseconds of its due time.
const missLimitMS = 25

// missMaxInFlight bounds the open loop's concurrent requests (and
// connections): past it, a due request waits and is counted late.
const missMaxInFlight = 16

// missGraph draws one unique inline graph and the algo that queries it.
// Half the graphs hold the target cycle (planted), half are free of it
// by construction or are G(n,m) graphs the exact oracle classifies.
func missGraph(rng *rand.Rand, o *opts, id int) (*inst, string, int) {
	name := fmt.Sprintf("g%d", id)
	var algo string
	var k int
	u := rng.Float64()
	switch {
	case u < 0.40:
		algo, k = "even", 2
	case u < 0.70:
		algo, k = "det", 2
	case u < 0.85:
		// The det detector's known incompleteness at k=3 shows on small
		// sparse random graphs; it is counted in miss_rate, not hidden.
		n := scaled(o, 100+rng.IntN(51), 12)
		return gnm(rng, name, n, n*5/4), "det", 3
	case u < 0.925:
		algo, k = "bounded", 2
	default:
		algo, k = "odd", 2
	}
	L := targetLen(algo, k)
	n := scaled(o, 100+rng.IntN(301), 2*L+4)
	m := n * 6 / 5
	switch rng.IntN(4) {
	case 0, 1:
		return plant(rng, highGirth(rng, name, n, m, L+1), L), algo, k
	case 2:
		return highGirth(rng, name, n, m, L+1), algo, k
	default:
		return gnm(rng, name, n, m), algo, k
	}
}

// missArrival is one scheduled request of the open loop.
type missArrival struct {
	due  time.Duration // offset from the start of the pass
	rate int           // index into missRates
	req  *detectReq
}

// missSchedule draws the Poisson arrivals of every rate step and the
// unique graph each one ships.
func missSchedule(o *opts, gt *gate) []missArrival {
	rng := newRNG(o.seed, 2)
	step := o.seconds / float64(len(missRates))
	var out []missArrival
	id := 0
	for ri, rate := range missRates {
		at := 0.0
		for {
			at += rng.ExpFloat64() / rate
			if at >= step {
				break
			}
			in, algo, k := missGraph(rng, o, id)
			id++
			gt.register(in)
			// Build the graph now, untimed, so the gate never builds one
			// while the load is running.
			in.graphOf()
			off := time.Duration((float64(ri)*step + at) * float64(time.Second))
			out = append(out, missArrival{due: off, rate: ri, req: newDetectReq(in, false, algo, k, o.seed, 8)})
		}
	}
	return out
}

// openLoop sends every arrival at its due time, at most missMaxInFlight
// at once, timing each from when it was due.
func openLoop(s *server, gt *gate, plan []missArrival, traced bool) ([]served, error) {
	out := make([]served, len(plan))
	sem := make(chan struct{}, missMaxInFlight)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	start := time.Now()
	for i, a := range plan {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sv, err := s.detect(gt, a.req, traced, due)
			out[i] = sv
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, first
}

// sloRPS is the highest rate at which ≥99% of requests sent returned 2xx
// within the limit, with no growing backlog (the last quarter of a
// step's requests no later, at the median, than the limit).
func sloRPS(rep *report, plan []missArrival, res []served) float64 {
	best := 0.0
	for ri, rate := range missRates {
		var lat []float64
		sent, met := 0, 0
		for i, a := range plan {
			if a.rate != ri {
				continue
			}
			sent++
			l := ms(res[i].lat)
			lat = append(lat, l)
			if res[i].ok && l <= missLimitMS {
				met++
			}
		}
		if sent == 0 {
			continue
		}
		tail := lat[len(lat)*3/4:]
		backlog := median(tail) > missLimitMS
		share := float64(met) / float64(sent)
		rep.note("rate %.0f/s: sent %d, within %dms %.4f, p50 %.3fms p99 %.3fms, backlog %v",
			rate, sent, missLimitMS, share, median(lat), quantile(lat, 0.99), backlog)
		if share >= 0.99 && !backlog {
			best = rate
		}
	}
	return best
}

func runServeMiss(o *opts, rep *report) error {
	gt := newGate()
	plan := missSchedule(o, gt)
	if len(plan) == 0 {
		return fmt.Errorf("serve-miss: empty schedule")
	}
	warmRNG := newRNG(o.seed, 3)
	var warm []*detectReq
	for i := range 16 {
		in, algo, k := missGraph(warmRNG, o, -1-i)
		in.name = fmt.Sprintf("warm%d", i)
		gt.register(in)
		warm = append(warm, newDetectReq(in, false, algo, k, o.seed, 8))
	}
	var s *server
	var pk peaks
	defer func() { s.stop() }()
	setup := func() (float64, error) {
		var secs float64
		var err error
		s, secs, _, err = serveSetup(o, gt, missMaxInFlight, nil, warm)
		if err == nil {
			err = pk.add(s)
		}
		return secs, err
	}
	if err := repeatSetup(rep, setup, func() { s.stop() }); err != nil {
		return err
	}
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return err
	}
	clock := startStealClock()
	res, err := openLoop(s, gt, plan, false)
	clock.finish()
	if err != nil {
		return err
	}
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return err
	}
	t := newTally()
	var computed []*verdict
	for _, sv := range res {
		t.add(sv)
		if sv.ok {
			computed = append(computed, sv.v)
		}
	}
	t.clock = clock
	t.endToEnd(rep, false)
	// The arrival schedule fixes completions per wall second, so the
	// open loop's throughput is ops per second of the server's CPU time:
	// the rate one core of the server sustains on this mix.
	rep.setE2E("ops_per_s", float64(len(t.lat))/(cpu1-cpu0), "1/s")
	rep.note("ops per wall second %.1f (set by the arrival schedule); server CPU %.3f s", float64(len(t.lat))/clock.elapsed, cpu1-cpu0)
	modelCost(rep, computed)
	rep.setE2E("slo_rps", sloRPS(rep, plan, res), "1/s")
	if err := finishServe(rep, gt, s, &pk); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	t.loadLayers(rep)
	// The traced pass replays the same stream on a fresh server, so its
	// requests miss the cache exactly as the untraced ones did.
	s.stop()
	if _, err := setup(); err != nil {
		return err
	}
	tres, err := openLoop(s, gt, plan, true)
	if err != nil {
		return err
	}
	tt := newTally()
	for _, sv := range tres {
		tt.add(sv)
	}
	if _, err := serverLayers(rep, s); err != nil {
		return err
	}
	tt.serverLedger(rep, median(t.lat), ledgerRow{"load.late", median(tt.late) * 1e3, "send − due"})
	n := min(len(plan), 300)
	var insts []*inst
	var stream []*detectReq
	for _, a := range plan[:n] {
		insts = append(insts, gt.insts[a.req.graph])
		stream = append(stream, a.req)
	}
	replayGraphs(rep, insts)
	return replayDetects(rep, newReplayService(serviceDefaults()), stream)
}
