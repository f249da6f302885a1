package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"time"

	evencycle "repro"
	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/graph"
	"repro/internal/quantum"
)

// paperIters is the fixed trial budget of paper-detect's randomized
// calls: C_2k-free inputs run all of it.
const paperIters = 8

// paperCall is one facade call of paper-detect.
type paperCall struct {
	mode string // even, det or quantum
	in   *inst
	k    int
}

// paperOutcome is what a call returned, in the shape the gate checks.
type paperOutcome struct {
	found    bool
	witness  []graph.NodeID
	rounds   int
	messages int64
}

// paperFamilySize is how many instances of each seeded family a pass
// covers, so a pass's cost averages over instance structure.
const paperFamilySize = 3

// paperQuantumSims caps the classical simulations per component of the
// quantum call, bounding its cost on every instance.
const paperQuantumSims = 64

// paperCalls draws the instances — the paper's families at n in the low
// thousands: planted C4 and C6 hosts, a randomly relabeled C4-free
// projective plane and C6-free high-girth graphs that run the full
// budget, and small heavy instances for the quantum pipeline — and the
// facade calls made on them, once each per pass.
func paperCalls(o *opts) []paperCall {
	rng := newRNG(o.seed, 4)
	n := scaled(o, 2000, 60)
	hn := scaled(o, 256, 24)
	q := 23
	if o.scale < 1 {
		q = 5
	}
	calls := []paperCall{}
	pg := relabel(rng, projectivePlane("pg-23", q))
	calls = append(calls, paperCall{"even", pg, 2}, paperCall{"det", pg, 2})
	for i := range paperFamilySize {
		c4 := plant(rng, highGirth(rng, fmt.Sprintf("planted-c4-%d", i), n, 3*n/2, 5), 4)
		c6 := plant(rng, highGirth(rng, fmt.Sprintf("planted-c6-%d", i), n, 13*n/10, 7), 6)
		hg := highGirth(rng, fmt.Sprintf("girth-7-%d", i), n, 13*n/10, 7)
		heavy := hubs(rng, plant(rng, gnm(rng, fmt.Sprintf("heavy-%d", i), hn, hn*3/2), 4), 2, hn/6)
		calls = append(calls,
			paperCall{"even", c4, 2}, paperCall{"det", c4, 2},
			paperCall{"even", c6, 3}, paperCall{"det", c6, 3},
			paperCall{"even", hg, 3}, paperCall{"det", hg, 3},
			paperCall{"quantum", heavy, 2})
	}
	return calls
}

// call runs one facade call on the built graph g.
func (c paperCall) call(g *evencycle.Graph, seed uint64) (paperOutcome, error) {
	switch c.mode {
	case "even":
		r, err := evencycle.Detect(g, c.k, evencycle.WithIterations(paperIters), evencycle.WithSeed(seed))
		if err != nil {
			return paperOutcome{}, err
		}
		return paperOutcome{r.Found, r.Witness, r.Rounds, r.Messages}, nil
	case "det":
		r, err := evencycle.DetectDeterministic(g, c.k)
		if err != nil {
			return paperOutcome{}, err
		}
		return paperOutcome{r.Found, r.Witness, r.Rounds, r.Messages}, nil
	default:
		r, err := evencycle.DetectQuantum(g, c.k, evencycle.WithIterations(2), evencycle.WithSeed(seed),
			evencycle.WithSimulationBudget(paperQuantumSims))
		if err != nil {
			return paperOutcome{}, err
		}
		return paperOutcome{found: r.Found, witness: r.Witness}, nil
	}
}

// paperGate checks one outcome: a Found witness is a 2k-cycle of the
// graph, a C_2k-free graph is never Found, and every call's outcome is
// the same on every repeat (all calls are seeded or seedless).
func paperGate(c paperCall, first map[int]paperOutcome, i int, out paperOutcome) error {
	L := 2 * c.k
	if out.found {
		if len(out.witness) != L {
			return violatef("%s/%s/k=%d: witness of %d vertices, want %d", c.in.name, c.mode, c.k, len(out.witness), L)
		}
		if err := evencycle.VerifyCycle(c.in.graphOf(), out.witness); err != nil {
			return violatef("%s/%s/k=%d: bad witness %v: %v", c.in.name, c.mode, c.k, out.witness, err)
		}
		if !c.in.hasCycle(L) {
			return violatef("%s/%s/k=%d: Found on a C%d-free graph", c.in.name, c.mode, c.k, L)
		}
	}
	if prev, ok := first[i]; !ok {
		first[i] = out
	} else if prev.found != out.found || prev.rounds != out.rounds || prev.messages != out.messages || !slices.Equal(prev.witness, out.witness) {
		return violatef("%s/%s/k=%d: outcome differs across repeats: %+v then %+v", c.in.name, c.mode, c.k, prev, out)
	}
	return nil
}

func runPaperDetect(o *opts, rep *report) error {
	// Set-up is instance generation: drawing the instances and building
	// them through the facade.
	var calls []paperCall
	var graphs map[*inst]*evencycle.Graph
	if err := repeatSetup(rep, func() (float64, error) {
		t0 := time.Now()
		calls = paperCalls(o)
		graphs = map[*inst]*evencycle.Graph{}
		for _, c := range calls {
			if graphs[c.in] == nil {
				graphs[c.in] = evencycle.NewGraph(c.in.n, c.in.edges)
			}
		}
		return time.Since(t0).Seconds(), nil
	}, func() {}); err != nil {
		return err
	}
	for _, c := range calls {
		c.in.hasCycle(2 * c.k)
	}

	first := map[int]paperOutcome{}
	var rounds, msgs []float64
	t := newTally()
	order := newRandIdx(o.seed, 5)
	clock := startStealClock()
	defer clock.finish()
	until := o.deadline()
	// The caller is due again as soon as its previous call returned; the
	// gate's checks in between show as load.late_ms.
	due := clock.start
	for pass := 0; time.Now().Before(until); pass++ {
		perm := order.r.Perm(len(calls))
		for _, i := range perm {
			c := calls[i]
			sent := time.Now()
			out, err := c.call(graphs[c.in], o.seed)
			done := time.Now()
			t.add(served{lat: done.Sub(sent), late: sent.Sub(due), done: done, ok: err == nil})
			due = done
			if err != nil {
				continue
			}
			if err := paperGate(c, first, i, out); err != nil {
				return err
			}
			if pass == 0 && c.mode != "quantum" {
				rounds = append(rounds, float64(out.rounds))
				msgs = append(msgs, float64(out.messages))
			}
		}
	}
	clock.finish()
	t.clock = clock
	t.endToEnd(rep, true)
	rep.setE2E("model_rounds", mean(rounds), "rounds")
	rep.setE2E("model_messages", mean(msgs), "msgs")
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	rep.setE2E("peak_rss_mb", rss, "MiB")
	misses, with := 0, 0
	for i, c := range calls {
		if c.in.hasCycle(2 * c.k) {
			with++
			if !first[i].found {
				misses++
			}
		}
	}
	rep.setE2E("miss_rate", float64(misses)/float64(max(1, with)), "ratio")
	rep.note("miss_rate base: %d calls whose graph holds the target cycle", with)
	if !o.trace {
		return nil
	}
	t.loadLayers(rep)
	return paperTraced(o, rep, calls, graphs, median(t.lat))
}

// paperTraced replays the call sequence through the internal detectors
// the facade wraps, with the engine's Observe hook recording every
// session as a child span of its detector call.
func paperTraced(o *opts, rep *report, calls []paperCall, graphs map[*inst]*evencycle.Graph, untracedP50 float64) error {
	var insts []*inst
	for _, c := range calls {
		if !slices.Contains(insts, c.in) {
			insts = append(insts, c.in)
		}
	}
	replayGraphs(rep, insts)
	var lat []float64
	var sessionsPerCall, enginePerCall, selfPerCall []float64
	overflow, evenCalls := 0, 0
	order := newRandIdx(o.seed, 5)
	until := o.deadline()
	var req int64
	for time.Now().Before(until) {
		for _, i := range order.r.Perm(len(calls)) {
			c := calls[i]
			g := graphs[c.in]
			req++
			sessions := &sessionLog{rep: rep}
			t0 := time.Now()
			var name string
			switch c.mode {
			case "even":
				name = "core.detect"
				r, err := core.DetectEvenCycle(g, c.k, core.Options{MaxIterations: paperIters, Seed: o.seed, Observe: sessions.observe})
				if err != nil {
					return err
				}
				evenCalls++
				if r.Overflowed {
					overflow++
				}
			case "det":
				name = "deterministic.detect"
				if _, err := deterministic.Detect(g, c.k, deterministic.Options{Observe: sessions.observe}); err != nil {
					return err
				}
			default:
				name = "quantum.detect"
				r, err := quantum.DetectEvenCycle(g, c.k, quantum.Options{AttemptIterations: 2, Seed: o.seed, MaxSims: paperQuantumSims})
				if err != nil {
					return err
				}
				rep.sample("quantum.components", float64(r.Components))
			}
			t1 := time.Now()
			engine := sessions.attach(rep.spans.add(name, req, 0, t0, t1), req)
			lat = append(lat, ms(t1.Sub(t0)))
			sessionsPerCall = append(sessionsPerCall, float64(len(sessions.spans)))
			enginePerCall = append(enginePerCall, ms(engine))
			selfPerCall = append(selfPerCall, us(t1.Sub(t0)-engine))
		}
	}
	d, self := rep.spans.durations(), rep.spans.selfTimes()
	for _, name := range []string{"core.detect", "deterministic.detect", "quantum.detect"} {
		rep.setLayer(name+"_ms", median(d[name])/1e3, "ms")
	}
	rep.setLayer("core.self_ms", median(self["core.detect"])/1e3, "ms")
	rep.setLayer("deterministic.self_ms", median(self["deterministic.detect"])/1e3, "ms")
	rep.setLayer("core.overflow_ratio", float64(overflow)/float64(max(1, evenCalls)), "ratio")
	rep.setLayer("quantum.components", median(rep.samples["quantum.components"]), "count")
	rep.setLayer("congest.session_ms", mean(d["congest.session"])/1e3, "ms")
	rep.setLayer("congest.rounds_per_session", mean(rep.samples["congest.rounds"]), "rounds")
	rep.setLayer("congest.sessions_per_verdict", mean(sessionsPerCall), "ratio")
	rep.setLayer("congest.engine_ms", median(enginePerCall), "ms")
	p50 := median(lat)
	rep.setLayer("obs.trace_overhead_pct", 100*(p50/untracedP50-1), "%")
	explained := median(enginePerCall)*1e3 + median(selfPerCall)
	rep.ledger = append(rep.ledger,
		ledgerRow{"congest.sessions", median(enginePerCall) * 1e3, "Σ Observe session wall per call"},
		ledgerRow{"detector.self", median(selfPerCall), "call − sessions"},
		ledgerRow{"unexplained", p50*1e3 - explained, "p50 − Σ layer medians"})
	rep.setLayer("ledger.unexplained_us", p50*1e3-explained, "us")
	return nil
}
