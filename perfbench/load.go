package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// detectReq is one prepared POST /v1/detect, pre-encoded so the load
// generator spends no time on JSON while measuring.
type detectReq struct {
	graph  string // name the gate knows the graph by
	algo   string
	k      int
	body   []byte // untraced body
	traced []byte // the same body with "trace":true
}

func newDetectReq(in *inst, corpus bool, algo string, k int, seed uint64, iters int) *detectReq {
	w := map[string]any{"algo": algo, "k": k}
	if corpus {
		w["corpus"] = in.name
	} else {
		w["graph"] = wireGraphOf(in)
	}
	if algo != "det" {
		w["seed"] = seed
		w["iterations"] = iters
	}
	r := &detectReq{graph: in.name, algo: algo, k: k}
	r.body = mustJSON(w)
	w["trace"] = true
	r.traced = mustJSON(w)
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers, strings and edge slices always marshal
	}
	return b
}

// served is one completed detection as the client saw it.
type served struct {
	lat       time.Duration // from due time to body read
	call      time.Duration // from send to body read
	done      time.Time     // when the body was read
	late      time.Duration // send time − due time
	ok        bool          // 2xx and gated
	elapsedNS int64         // X-Evencycle-Elapsed-Ns: time inside DoInfo
	source    string        // X-Evencycle-Source
	v         *verdict
}

// detect sends one request due at due and gates its body. A transport
// error or non-2xx status is a failed op (ok=false); a gate violation is
// returned.
func (s *server) detect(gt *gate, r *detectReq, traced bool, due time.Time) (served, error) {
	sv, body := s.send(r, traced, due)
	return sv, sv.gate(gt, r, body)
}

// send sends one request due at due and returns the body of a 2xx (nil
// for a failed op) for the gate.
func (s *server) send(r *detectReq, traced bool, due time.Time) (served, []byte) {
	body := r.body
	if traced {
		body = r.traced
	}
	sent := time.Now()
	status, out, hdr, err := s.post("/v1/detect", body)
	done := time.Now()
	sv := served{lat: done.Sub(due), call: done.Sub(sent), late: sent.Sub(due), done: done}
	if err != nil || status != http.StatusOK {
		return sv, nil
	}
	sv.elapsedNS, _ = strconv.ParseInt(hdr.Get("X-Evencycle-Elapsed-Ns"), 10, 64)
	sv.source = hdr.Get("X-Evencycle-Source")
	return sv, out
}

// gate checks the body send returned; a body that passes makes the op ok.
func (sv *served) gate(gt *gate, r *detectReq, body []byte) error {
	if body == nil {
		return nil
	}
	v, err := gt.check(r.graph, r.algo, r.k, body)
	if err != nil {
		return err
	}
	sv.ok, sv.v = true, v
	return nil
}

// closedLoop runs workers callers until the deadline; each calls step
// again as soon as the previous call returns, with the due time being
// that moment. The first error stops every worker and is returned.
func closedLoop(workers int, until time.Time, step func(w int, due time.Time) error) error {
	var stop atomic.Bool
	var once sync.Once
	var first error
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && time.Now().Before(until) {
				if err := step(w, time.Now()); err != nil {
					once.Do(func() { first = err })
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// tally summarizes a set of served requests into the load metrics.
type tally struct {
	lat      []float64   // ms, ok requests only
	done     []time.Time // completion of each ok request
	clock    *stealClock // the measured pass's clock
	late     []float64   // ms
	sent     int
	failed   int
	byStages map[string][]float64
	outside  []float64 // us: client time of the call − time inside DoInfo
	svcSelf  []float64 // us: time inside DoInfo − traced stages
	sources  map[string]int
}

func newTally() *tally {
	return &tally{byStages: map[string][]float64{}, sources: map[string]int{}}
}

func (t *tally) add(sv served) {
	t.sent++
	t.late = append(t.late, ms(sv.late))
	if !sv.ok {
		t.failed++
		return
	}
	t.lat = append(t.lat, ms(sv.lat))
	t.done = append(t.done, sv.done)
	t.sources[sv.source]++
	if sv.elapsedNS > 0 {
		t.outside = append(t.outside, us(sv.call)-float64(sv.elapsedNS)/1e3)
	}
	if sv.v != nil && sv.v.TraceNS != nil {
		var staged int64
		for _, st := range obs.StageNames() {
			ns := sv.v.TraceNS[st]
			staged += ns
			t.byStages[st] = append(t.byStages[st], float64(ns)/1e3)
		}
		t.svcSelf = append(t.svcSelf, float64(sv.elapsedNS-staged)/1e3)
	}
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.done = append(t.done, o.done...)
	t.late = append(t.late, o.late...)
	t.sent += o.sent
	t.failed += o.failed
	for k, v := range o.byStages {
		t.byStages[k] = append(t.byStages[k], v...)
	}
	t.outside = append(t.outside, o.outside...)
	t.svcSelf = append(t.svcSelf, o.svcSelf...)
	for k, v := range o.sources {
		t.sources[k] += v
	}
}

// endToEnd reports the latency/throughput metrics of a measured pass
// (closed: a closed loop).
func (t *tally) endToEnd(rep *report, closed bool) {
	rep.attempted += int64(t.sent)
	rep.failed += int64(t.failed)
	quietSummary(rep, t.lat, t.done, t.clock, closed)
	latencyTail(rep, t.lat)
	rep.setE2E("error_rate", float64(t.failed)/math.Max(1, float64(t.sent)), "ratio")
}

// latencyTail reports the tail of a latency sample, p90_ms and p99_ms,
// with the sample count behind the p99.
func latencyTail(rep *report, lat []float64) {
	rep.setE2E("p90_ms", quantile(lat, 0.90), "ms")
	rep.setE2E("p99_ms", quantile(lat, 0.99), "ms")
	rep.note("latency samples %d; p99 has >= 10 samples beyond it: %v", len(lat), p99Valid(len(lat)))
}

// loadLayers reports the load generator's own metrics for a pass.
func (t *tally) loadLayers(rep *report) {
	rep.setLayer("load.late_ms", quantile(t.late, 0.99), "ms")
	rep.setLayer("load.sent", float64(t.sent), "count")
	rep.setLayer("load.failed", float64(t.failed), "count")
}

// serverLedger explains the traced pass's median op as the lead rows
// (client-side steps before the detect is sent), time outside DoInfo
// (HTTP, JSON, handler), the service's own time and the traced stages, and
// reports those layers' metrics.
func (t *tally) serverLedger(rep *report, untracedP50 float64, lead ...ledgerRow) {
	p50 := median(t.lat)
	rep.setLayer("obs.trace_overhead_pct", 100*(p50/untracedP50-1), "%")
	rep.setLayer("cycleserved.outside_us", median(t.outside), "us")
	rep.setLayer("service.self_us", median(t.svcSelf), "us")
	rows := append(slices.Clone(lead),
		ledgerRow{"cycleserved.outside", median(t.outside), "client time of the call − X-Evencycle-Elapsed-Ns"},
		ledgerRow{"service.self", median(t.svcSelf), "Elapsed − trace stages"})
	for _, st := range obs.StageNames() {
		rows = append(rows, ledgerRow{"stage." + st, median(t.byStages[st]), "trace_ns"})
	}
	explained := 0.0
	for _, row := range rows {
		explained += row.SelfUS
	}
	rep.ledger = append(rep.ledger, rows...)
	rep.ledger = append(rep.ledger, ledgerRow{"unexplained", p50*1e3 - explained, "p50 − Σ layer medians"})
	rep.setLayer("ledger.unexplained_us", p50*1e3-explained, "us")
	rep.setLayer("sched.queue_wait_ms", median(t.byStages["queue_wait"])/1e3, "ms")
	rep.setLayer("sched.queue_wait_p99_ms", quantile(t.byStages["queue_wait"], 0.99)/1e3, "ms")
	rep.setLayer("sched.batch_linger_ms", median(t.byStages["batch_linger"])/1e3, "ms")
	rep.setLayer("sched.batch_linger_p99_ms", quantile(t.byStages["batch_linger"], 0.99)/1e3, "ms")
	var engine []float64
	for _, v := range t.byStages["engine"] {
		if v > 0 {
			engine = append(engine, v)
		}
	}
	if len(engine) > 0 {
		rep.setLayer("congest.engine_ms", median(engine)/1e3, "ms")
	}
}

// hist returns a histogram family of a scrape. A family the server no
// longer exposes is an error, never an empty (and so perfect-looking)
// layer.
func hist(exp *obs.Exposition, name string) (*obs.HistogramSnapshot, error) {
	h, err := exp.MergedHistogram(name)
	if err == nil && h == nil {
		err = fmt.Errorf("/metrics has no histogram %s", name)
	}
	return h, err
}

// histMean is sum/count of a histogram (NaN when empty: not measured).
func histMean(h *obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / h.Count
}

// histP50 is the interpolated median of a histogram (NaN when empty).
func histP50(h *obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Quantile(0.5)
}

// randIdx draws request indices from a seeded stream.
type randIdx struct{ r *rand.Rand }

func newRandIdx(seed, stream uint64) *randIdx { return &randIdx{newRNG(seed, stream)} }

func (x *randIdx) next(n int) int { return x.r.IntN(n) }
