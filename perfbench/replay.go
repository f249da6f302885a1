package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// The traced run replays a workload's request stream in-process through
// the public functions of the layers the server composes, timing each
// call from the benchmark's own code. The replay service is configured
// like cycleserved's defaults.

func newReplayService(cfg service.Config) *service.Service {
	cfg.Parallel = 1
	cfg.Observe = true
	return service.New(cfg)
}

// replayGraphs times WireGraph.Build and the first Fingerprint of each
// graph, as the server does for every inline graph or corpus create.
func replayGraphs(rep *report, insts []*inst) {
	for i, in := range insts {
		wg := &service.WireGraph{N: in.n, Edges: in.edges}
		req := int64(-1 - i)
		t0 := time.Now()
		g, err := wg.Build()
		t1 := time.Now()
		if err != nil {
			continue
		}
		g.Fingerprint()
		t2 := time.Now()
		rep.spans.add("graph.build", req, 0, t0, t1)
		rep.spans.add("graph.fingerprint", req, 0, t1, t2)
	}
	d := rep.spans.durations()
	rep.setLayer("graph.build_us", median(d["graph.build"]), "us")
	rep.setLayer("graph.fingerprint_us", median(d["graph.fingerprint"]), "us")
}

// replayDetects replays detection bodies through wire decode,
// Service.Resolve, Service.DoInfo and wire encode, one request at a
// time, recording a span per call with DoInfo's traced stages as its
// children.
func replayDetects(rep *report, svc *service.Service, stream []*detectReq) error {
	ctx := context.Background()
	for i, r := range stream {
		id := int64(i + 1)
		t0 := time.Now()
		var wr service.WireRequest
		if err := json.Unmarshal(r.body, &wr); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		wr.Trace = true
		t1 := time.Now()
		req, err := svc.Resolve(&wr, 32)
		if err != nil {
			return fmt.Errorf("replay resolve: %w", err)
		}
		t2 := time.Now()
		resp, _, err := svc.DoInfo(ctx, req)
		if err != nil {
			return fmt.Errorf("replay DoInfo: %w", err)
		}
		t3 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		t4 := time.Now()
		root := rep.spans.add("replay.request", id, 0, t0, t4)
		rep.spans.add("wire.decode", id, root, t0, t1)
		rep.spans.add("service.resolve", id, root, t1, t2)
		do := rep.spans.add("service.do", id, root, t2, t3)
		at := t2
		req.Trace.Each(func(st obs.Stage, ns int64) {
			end := at.Add(time.Duration(ns))
			rep.spans.add("stage."+st.String(), id, do, at, end)
			at = end
		})
		rep.spans.add("wire.encode", id, root, t3, t4)
	}
	d := rep.spans.durations()
	rep.setLayer("wire.decode_us", median(d["wire.decode"]), "us")
	rep.setLayer("wire.encode_us", median(d["wire.encode"]), "us")
	rep.setLayer("service.resolve_us", median(d["service.resolve"]), "us")
	rep.setLayer("service.do_us", median(d["service.do"]), "us")
	if _, ok := rep.layers["congest.engine_ms"]; !ok {
		// No engine ran in the traced HTTP pass (all hits): take the
		// engine stage of the replay's computed requests.
		var engine []float64
		for _, v := range d["stage.engine"] {
			if v > 0 {
				engine = append(engine, v/1e3)
			}
		}
		rep.setLayer("congest.engine_ms", median(engine), "ms")
	}
	return nil
}

// sessionLog collects the engine sessions a detector reports through its
// Observe hook (called on the detector's goroutine: the replays run
// trials sequentially).
type sessionLog struct {
	rep   *report
	spans [][2]time.Time
}

func (l *sessionLog) observe(rounds int, wall time.Duration) {
	end := time.Now()
	l.spans = append(l.spans, [2]time.Time{end.Add(-wall), end})
	l.rep.sample("congest.rounds", float64(rounds))
}

// attach records the sessions as child spans of parent and returns
// their total wall time.
func (l *sessionLog) attach(parent, req int64) time.Duration {
	var total time.Duration
	for _, s := range l.spans {
		l.rep.spans.add("congest.session", req, parent, s[0], s[1])
		total += s[1].Sub(s[0])
	}
	return total
}

// serviceDefaults is the service configuration cycleserved runs with
// when no flag overrides it.
func serviceDefaults() service.Config {
	return service.Config{MaxQueue: 1024, CacheEntries: 1024}
}

// engineLayers reports the congest engine's metrics and the service's
// serve-path ratios over a fresh server's lifetime, from one /metrics
// scrape and one /v1/stats read taken at the end of the run.
func engineLayers(rep *report, exp *obs.Exposition, st stats) error {
	h := map[string]*obs.HistogramSnapshot{}
	for _, name := range []string{"evencycle_engine_session_seconds", "evencycle_engine_session_rounds",
		"evencycle_batch_fill_size", "evencycle_gate_wait_seconds"} {
		var err error
		if h[name], err = hist(exp, name); err != nil {
			return err
		}
	}
	rep.setLayer("congest.session_ms", histMean(h["evencycle_engine_session_seconds"])*1e3, "ms")
	rep.setLayer("congest.rounds_per_session", histMean(h["evencycle_engine_session_rounds"]), "rounds")
	rep.setLayer("congest.sessions_per_verdict", float64(st.EngineSessions)/max(1, float64(st.Computed)), "ratio")
	reqs := max(1, float64(st.Requests))
	rep.setLayer("service.hit_ratio", float64(st.Hits)/reqs, "ratio")
	rep.setLayer("service.coalesced_ratio", float64(st.Coalesced)/reqs, "ratio")
	rep.setLayer("sched.batch_fill", histMean(h["evencycle_batch_fill_size"]), "count")
	rep.setLayer("sched.gate_wait_ms", histP50(h["evencycle_gate_wait_seconds"])*1e3, "ms")
	return nil
}
