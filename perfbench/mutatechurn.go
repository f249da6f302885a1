package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	evencycle "repro"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/service"
	"repro/internal/store"
)

// churnLanes is how many corpus graphs mutate-churn keeps at a time.
// Each lane owns one; the benchmark's one connection serves the lanes in
// turn. (Two connections put client and server on both vCPUs of the
// 2-vCPU guest at once, and the ops then followed the host's load more
// than the program.)
const churnLanes = 2

// churnEpoch is how many edges a lane adds to a graph before it
// deletes it and creates a fresh one. Without it the graphs would
// densify through the run (the cost per op grows with the edges), and a
// faster build would be measured on denser graphs. Its first graph's
// states also fix the model cost and miss rate, so they repeat exactly
// for a seed.
const churnEpoch = 300

// churnStream generates one lane's edge additions. Lane 0 adds edges
// between vertices at distance ≥ 4 while it can find them, so its graph
// stays C4-free and every mutation takes the warm recheck path; lane 1
// adds uniform random edges, so its graph gains C4s and its verdicts
// turn Found.
type churnStream struct {
	name  string
	n     int
	far   bool
	rng   *rand.Rand
	adj   [][]graph.NodeID
	edges [][2]graph.NodeID // mirror of the server's edge list, in order
	base  int               // edges of the created graph
	seen  map[[2]graph.NodeID]bool
}

// newChurnStream draws lane w's graph number epoch.
func newChurnStream(o *opts, w, epoch int) *churnStream {
	rng := newRNG(o.seed, uint64(20+epoch*churnLanes+w))
	n := scaled(o, 2000, 40)
	in := highGirth(rng, fmt.Sprintf("churn-%d-%d", w, epoch), n, n*6/5, 5)
	cs := &churnStream{name: in.name, n: n, far: w == 0, rng: rng,
		adj: make([][]graph.NodeID, n), seen: map[[2]graph.NodeID]bool{}}
	for _, e := range in.edges {
		cs.add(e)
	}
	cs.base = len(cs.edges)
	return cs
}

func (cs *churnStream) inst() *inst {
	return &inst{name: cs.name, n: cs.n, edges: slices.Clone(cs.edges)}
}

func (cs *churnStream) add(e [2]graph.NodeID) {
	cs.seen[e] = true
	cs.edges = append(cs.edges, e)
	cs.adj[e[0]] = append(cs.adj[e[0]], e[1])
	cs.adj[e[1]] = append(cs.adj[e[1]], e[0])
}

// within reports whether v is within distance d of u.
func (cs *churnStream) within(u, v graph.NodeID, d int) bool {
	frontier, seen := []graph.NodeID{u}, map[graph.NodeID]bool{u: true}
	for range d {
		var next []graph.NodeID
		for _, x := range frontier {
			for _, y := range cs.adj[x] {
				if y == v {
					return true
				}
				if !seen[y] {
					seen[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return false
}

// next draws and applies the next new edge. A far-only stream that
// finds no far pair in farTries draws falls back to any new edge.
func (cs *churnStream) next() [2]graph.NodeID {
	const farTries = 1000
	for try := 0; ; try++ {
		u, v := graph.NodeID(cs.rng.IntN(cs.n)), graph.NodeID(cs.rng.IntN(cs.n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]graph.NodeID{u, v}
		if cs.seen[e] || (cs.far && try < farTries && cs.within(u, v, 3)) {
			continue
		}
		cs.add(e)
		return e
	}
}

// mutationAck is the body of a 200 from POST /v1/corpus/{name}/edges.
type mutationAck struct {
	Fingerprint       string `json:"fingerprint"`
	ParentFingerprint string `json:"parent_fingerprint"`
	M                 int    `json:"m"`
	Noop              bool   `json:"noop"`
	WarmStarts        int    `json:"warm_starts"`
	Fallbacks         int    `json:"fallbacks"`
}

// churnLane is one lane's state and measurements.
type churnLane struct {
	w, epoch int
	cs       *churnStream
	first    *churnStream  // the first epoch's stream
	fp       string        // fingerprint the last ack (or the create) reported
	sent     []churnDetect // detects not gated yet
	verdicts []*verdict    // first epoch: det verdict per state, in order (nil: failed)
	mutate   []float64     // ms per acknowledged mutation
	t        *tally        // one op: a mutation and the detect of the new graph
	warm, fb int
}

// churnDetect is one det detect of a graph state. It is gated when its
// pass or set-up has ended, so that the gate's graph builds do not load
// the host while it is measured.
type churnDetect struct {
	sv    served
	req   *detectReq
	state *inst
	body  []byte
	fp    string // the fingerprint the server acknowledged for the state
	op    bool   // the detect of a mutation, not of a created graph
	first bool   // a state of the lane's first graph
}

func newChurnLane(o *opts, w int) *churnLane {
	cs := newChurnStream(o, w, 0)
	return &churnLane{w: w, cs: cs, first: cs, t: newTally()}
}

func runMutateChurn(o *opts, rep *report) error {
	dataRoot, err := filepath.Abs(filepath.Join(o.outDir, "data"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	var s *server
	var pk peaks
	var lanes []*churnLane
	var dirs []string
	gt := newGate()
	defer func() {
		s.stop()
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	// Set-up: a fresh -data-dir (fsync on), the harness's corpus created
	// through the API, and one det verdict per graph computed.
	setup := func() (float64, error) {
		dir, err := os.MkdirTemp(dataRoot, "churn-")
		if err != nil {
			return 0, err
		}
		dirs = append(dirs, dir)
		lanes = nil
		t0 := time.Now()
		s, err = startServer(o.server, 1, "-data-dir", dir)
		if err != nil {
			return 0, err
		}
		for w := range churnLanes {
			c := newChurnLane(o, w)
			lanes = append(lanes, c)
			if err := c.create(s); err != nil {
				return 0, err
			}
		}
		secs := time.Since(t0).Seconds()
		if err := pk.add(s); err != nil {
			return 0, err
		}
		return secs, gateChurn(gt, lanes)
	}
	if err := repeatSetup(rep, setup, func() { s.stop() }); err != nil {
		return err
	}
	clock := startStealClock()
	err = churnPass(s, o, lanes, false)
	clock.finish()
	if err == nil {
		err = gateChurn(gt, lanes)
	}
	if err != nil {
		return err
	}
	t, mutate, warm, fb := churnTally(lanes)
	t.clock = clock
	t.endToEnd(rep, true)
	rep.setE2E("mutate_p50_ms", median(mutate), "ms")
	rep.setE2E("mutate_p99_ms", quantile(mutate, 0.99), "ms")
	rep.note("op = one acknowledged single-edge mutation plus the det detect of the new graph")
	churnModel(rep, lanes)
	missRate, with := churnMisses(lanes)
	rep.setE2E("miss_rate", missRate, "ratio")
	rep.note("miss_rate base: %d mutated states holding a C4", with)
	if err := pk.report(rep, s); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	t.loadLayers(rep)
	rep.setLayer("incr.warm_ratio", float64(warm)/float64(max(1, warm+fb)), "ratio")
	// The traced pass repeats the same mutation stream on a fresh server
	// and data directory; the gate holds its det bodies to the untraced
	// pass's.
	s.stop()
	if _, err := setup(); err != nil {
		return err
	}
	if err := churnPass(s, o, lanes, true); err != nil {
		return err
	}
	if err := gateChurn(gt, lanes); err != nil {
		return err
	}
	tt, tmutate, _, _ := churnTally(lanes)
	exp, err := serverLayers(rep, s)
	if err != nil {
		return err
	}
	fsync, err := hist(exp, "evencycle_store_fsync_seconds")
	if err != nil {
		return err
	}
	appendBytes, err := hist(exp, "evencycle_store_append_bytes")
	if err != nil {
		return err
	}
	rep.setLayer("store.fsync_ms", histP50(fsync)*1e3, "ms")
	rep.setLayer("store.append_bytes_per_mutation", histMean(appendBytes), "bytes")
	tt.serverLedger(rep, median(t.lat), ledgerRow{"mutation.ack", median(tmutate) * 1e3, "POST .../edges client latency"})
	return churnReplay(o, rep, dataRoot, &dirs)
}

// churnTally merges the lanes' ops, mutation latencies and warm
// recheck counts.
func churnTally(lanes []*churnLane) (t *tally, mutate []float64, warm, fb int) {
	t = newTally()
	for _, c := range lanes {
		t.merge(c.t)
		mutate = append(mutate, c.mutate...)
		warm, fb = warm+c.warm, fb+c.fb
	}
	return t, mutate, warm, fb
}

// detect serves the det verdict of the lane's graph; due is when
// the op began. Each state of the graph is a graph of its own to the
// gate.
func (c *churnLane) detect(s *server, traced, op bool, due time.Time) {
	m := len(c.cs.edges)
	state := &inst{name: fmt.Sprintf("%s@%d", c.cs.name, m), n: c.cs.n, edges: c.cs.edges[:m:m]}
	r := newDetectReq(&inst{name: c.cs.name}, true, "det", 2, 0, 0)
	r.graph = state.name
	sv, body := s.send(r, traced, due)
	c.sent = append(c.sent, churnDetect{sv, r, state, body, c.fp, op, c.epoch == 0})
}

// gateChurn gates the lanes' detects in the order they were
// served: the gate's checks, and the served fingerprint against the one
// the create or mutation acknowledged. Mutation ops then go to the
// lane's tally.
func gateChurn(gt *gate, lanes []*churnLane) error {
	for _, c := range lanes {
		for _, d := range c.sent {
			gt.register(d.state)
			err := d.sv.gate(gt, d.req, d.body)
			d.state.g = nil // checked: the gate keeps only the edges
			if err != nil {
				return err
			}
			if d.sv.ok && d.sv.v.Fingerprint != d.fp {
				return violatef("%s: served fingerprint %s, the server acknowledged %s", d.state.name, d.sv.v.Fingerprint, d.fp)
			}
			if !d.op && !d.sv.ok {
				return fmt.Errorf("detect on the new graph %s failed", d.state.name)
			}
			if d.first {
				c.verdicts = append(c.verdicts, d.sv.v)
			}
			if d.op {
				c.t.add(d.sv)
			}
		}
		c.sent = nil
	}
	return nil
}

// create ships the lane's graph and computes its det verdict.
func (c *churnLane) create(s *server) error {
	fp, err := s.createCorpus(c.cs.inst())
	if err != nil {
		return err
	}
	c.fp = fp
	c.detect(s, false, false, time.Now())
	return nil
}

// rotate deletes the lane's graph and creates its next one, with
// a det verdict computed for it.
func (c *churnLane) rotate(s *server, o *opts) error {
	req, err := http.NewRequest(http.MethodDelete, s.base+"/v1/corpus/"+c.cs.name, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("deleting %s: status %d", c.cs.name, resp.StatusCode)
	}
	c.epoch++
	c.cs = newChurnStream(o, c.w, c.epoch)
	return c.create(s)
}

// churnPass runs the closed loop on one connection, taking the lanes in
// turn: an op adds one edge to the lane's graph, waits for the
// acknowledgment, then detects on the new graph. Every churnEpoch edges
// a lane moves on to a fresh graph (untimed).
func churnPass(s *server, o *opts, lanes []*churnLane, traced bool) error {
	turn := 0
	return closedLoop(1, o.deadline(), func(_ int, due time.Time) error {
		c := lanes[turn%len(lanes)]
		turn++
		if len(c.cs.edges)-c.cs.base == churnEpoch {
			return c.rotate(s, o)
		}
		parent := c.fp
		e := c.cs.next()
		sent := time.Now()
		status, out, _, err := s.post("/v1/corpus/"+c.cs.name+"/edges", mustJSON(map[string]any{"edges": [][2]graph.NodeID{e}}))
		acked := time.Now()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("mutation of %s: status %d: %v %s", c.cs.name, status, err, out)
		}
		var ack mutationAck
		if err := json.Unmarshal(out, &ack); err != nil {
			return violatef("undecodable mutation ack: %v", err)
		}
		if ack.Noop || ack.ParentFingerprint != parent || ack.M != len(c.cs.edges) {
			return violatef("%s: ack %+v does not extend parent %s to m=%d", c.cs.name, ack, parent, len(c.cs.edges))
		}
		c.fp = ack.Fingerprint
		c.warm, c.fb = c.warm+ack.WarmStarts, c.fb+ack.Fallbacks
		c.mutate = append(c.mutate, ms(acked.Sub(due)))
		c.detect(s, traced, true, due)
		// The op was sent with its mutation.
		c.sent[len(c.sent)-1].sv.late = sent.Sub(due)
		return nil
	})
}

// churnMisses counts, over each lane's first graph (a fixed set
// of states, so it repeats exactly for a seed), NotFound verdicts on
// states holding a C4. States only gain edges, so the first state
// holding one is found by binary search with the exact oracle. (A Found
// verdict passed the gate's witness check, so its state holds a C4.)
func churnMisses(lanes []*churnLane) (float64, int) {
	misses, with := 0, 0
	for _, c := range lanes {
		vs, cs := c.verdicts, c.first
		has := func(state int) bool {
			return graph.HasCycleLen(evencycle.NewGraph(cs.n, cs.edges[:cs.base+state]), 4)
		}
		lo, hi := 0, len(vs) // the first state with a C4 is in [lo, hi]
		for lo < hi {
			mid := (lo + hi) / 2
			if has(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for _, v := range vs[lo:] {
			if v != nil {
				with++
				if !v.Found {
					misses++
				}
			}
		}
	}
	return float64(misses) / float64(max(1, with)), with
}

// churnModel reports the paper's cost of the det verdicts computed for
// each lane's first graph: the localized recheck session of a
// warm start, or a full session. A Found verdict re-keyed from its
// parent (same witness and cost fields) was not computed and is skipped.
func churnModel(rep *report, lanes []*churnLane) {
	var rounds, msgs []float64
	for _, c := range lanes {
		var prev *verdict
		for _, v := range c.verdicts {
			rekeyed := v != nil && prev != nil && v.Found && prev.Found && v.Rounds == prev.Rounds && v.Messages == prev.Messages
			if v != nil && !rekeyed {
				rounds = append(rounds, float64(v.Rounds))
				msgs = append(msgs, float64(v.Messages))
			}
			prev = v
		}
	}
	rep.setE2E("model_rounds", mean(rounds), "rounds")
	rep.setE2E("model_messages", mean(msgs), "msgs")
}

// churnReplay replays the first mutations of each stream in-process:
// the service's durable mutation path, the CSR splice and the warm
// recheck, each timed from here.
func churnReplay(o *opts, rep *report, dataRoot string, dirs *[]string) error {
	dir, err := os.MkdirTemp(dataRoot, "replay-")
	if err != nil {
		return err
	}
	*dirs = append(*dirs, dir)
	st, err := store.Open(dir, store.Options{Fsync: true, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	defer st.Close()
	cfg := serviceDefaults()
	cfg.Persist = st
	svc := newReplayService(cfg)
	ctx := context.Background()
	var req int64
	for w := range churnLanes {
		cs := newChurnStream(o, w, 0)
		wg := &service.WireGraph{N: cs.n, Edges: slices.Clone(cs.edges)}
		t0 := time.Now()
		g, err := wg.Build()
		if err != nil {
			return err
		}
		rep.spans.add("graph.build", req, 0, t0, time.Now())
		t1 := time.Now()
		g.Fingerprint()
		rep.spans.add("graph.fingerprint", req, 0, t1, time.Now())
		if err := svc.CreateCorpus(cs.name, g); err != nil {
			return err
		}
		for range 200 {
			req++
			e := cs.next()
			parent, _ := svc.NamedGraph(cs.name)
			if _, _, err := svc.DoInfo(ctx, &service.Request{Graph: parent, Algo: service.AlgoDet, K: 2}); err != nil {
				return err
			}
			ta := time.Now()
			child, err := parent.WithEdges([][2]graph.NodeID{e})
			if err != nil {
				return err
			}
			tb := time.Now()
			child.Fingerprint()
			tc := time.Now()
			sessions := &sessionLog{rep: rep}
			if _, err := incr.Recheck(child, [][2]graph.NodeID{e}, 2, incr.Options{Observe: sessions.observe}); err != nil {
				return err
			}
			engine := sessions.attach(rep.spans.add("incr.recheck", req, 0, tc, time.Now()), req)
			rep.sample("congest.engine", ms(engine))
			rep.sample("congest.sessions", float64(len(sessions.spans)))
			td := time.Now()
			if _, err := svc.AddCorpusEdges(cs.name, [][2]graph.NodeID{e}); err != nil {
				return err
			}
			te := time.Now()
			rep.spans.add("graph.withedges", req, 0, ta, tb)
			rep.spans.add("graph.fingerprint_resume", req, 0, tb, tc)
			rep.spans.add("service.add_corpus_edges", req, 0, td, te)
		}
	}
	d := rep.spans.durations()
	rep.setLayer("graph.build_us", median(d["graph.build"]), "us")
	rep.setLayer("graph.fingerprint_us", median(d["graph.fingerprint"]), "us")
	rep.setLayer("graph.withedges_us", median(d["graph.withedges"]), "us")
	rep.setLayer("graph.fingerprint_resume_us", median(d["graph.fingerprint_resume"]), "us")
	rep.setLayer("incr.recheck_us", median(d["incr.recheck"]), "us")
	// The server's engine metrics miss the warm rechecks (they run
	// unobserved inside the mutation), so the engine layer of this
	// workload comes from the replayed rechecks.
	rep.setLayer("congest.engine_ms", median(rep.samples["congest.engine"]), "ms")
	rep.setLayer("congest.session_ms", mean(d["congest.session"])/1e3, "ms")
	rep.setLayer("congest.rounds_per_session", mean(rep.samples["congest.rounds"]), "rounds")
	rep.setLayer("congest.sessions_per_verdict", mean(rep.samples["congest.sessions"]), "ratio")
	rep.setLayer("service.add_corpus_edges_us", median(d["service.add_corpus_edges"]), "us")
	return nil
}
