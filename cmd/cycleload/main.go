// Command cycleload is a closed-loop load generator for cycleserved: C
// client goroutines each keep exactly one request in flight against
// POST /v1/detect, cycling through a slice of the server's corpus so the
// request stream mixes cache misses (first touch of each graph) with hits
// (every revisit). It reports throughput, a latency histogram with
// percentiles, and the serve-path split the server advertises in its
// X-Evencycle-Source headers — and can gate on minimum cache-hit ratio
// and maximum failures, which is how the CI smoke job asserts the service
// works.
//
// Usage:
//
//	cycleload -addr http://localhost:8972 -requests 400 -clients 8 \
//	  -algo det -k 2 -distinct 4 [-json -out BENCH_5.json] \
//	  [-min-hit-ratio 0.5] [-max-failures 0]
//
// The corpus names are discovered from GET /v1/corpus; -distinct D uses
// the first D names, so with R requests the expected hit ratio approaches
// 1 - D/R once every graph has been touched. Deterministic mode (-algo
// det) additionally asserts that every response body for a given graph is
// byte-identical — the service's determinism acceptance check.
//
// The many-small-graphs mode (-inline spec) generates -distinct D graphs
// client-side from the spec template (one per derived seed) and ships
// them inline instead of referencing the corpus. With D close to the
// request count nearly every request is a first touch — a pure miss-path
// workload, which is what the server's fused batching exists for. The
// report then includes the batch-size distribution the server advertises
// in its X-Evencycle-Batch headers, and the server's own final counters;
// -max-engine-sessions gates on fused batching actually collapsing the
// session count (the CI smoke job's batching assertion).
//
// The in-process mode (-direct, requires -inline) drives service.Do
// directly instead of going through HTTP, so the measurement isolates
// the miss path itself — fingerprint, scheduling, engine session — from
// the HTTP/JSON transport cost, which on small graphs is several times
// the detection cost and identical on every serve path. -direct -vs-solo
// replays the same workload twice, against a batching-disabled service
// and a batched one, verifies the responses are byte-identical per graph
// across both, and emits a single comparison record with the throughput
// ratio (BENCH_6.json); -min-speedup gates on that ratio and -trials
// takes the best of N runs per path to damp scheduler noise.
//
// Failure-domain accounting: every request lands in an outcome class
// ("2xx", "408" deadline, "429" shed, "499" cancelled, "503" contained
// panic/drain, "client_timeout", "net"), tallied in totals.by_class.
// -deadline-ms attaches a per-request deadline (the 408/429 domains);
// -timeout D -timeout-frac F abandons a fraction F of requests
// client-side after D (the 499 domain, exercising cooperative engine
// cancellation under live load).
//
// Retry policy (-retries N, HTTP mode only): 429 and 503 are the
// server's explicit safe-to-retry pushback, so with N > 0 the client
// retries them up to N times, sleeping the server's Retry-After hint
// when one is sent and otherwise an exponential backoff (25ms doubling,
// capped by -max-backoff), both with ±25% jitter so synchronized
// clients don't re-arrive in lockstep. A request that failed first and
// then succeeded counts as "2xx_retried" in totals.by_class — visibly
// distinct from clean "2xx", so a run that leaned on retries can't
// masquerade as one that didn't.
//
// The chaos mode (-chaos, requires -direct -inline) is the robustness
// acceptance harness: it replays the workload fault-free to capture
// reference response bodies, arms the -fault specs (or a default storm
// of round stalls, detector panics, and batch-leader crashes), replays
// again under a watchdog, and gates on the failure-domain invariants —
// the chaos run finishes (no hangs), every failure carries the typed
// taxonomy, every surviving response is byte-identical to its reference,
// the armed faults actually fired, and the service drains to idle (no
// leaked admission slots). BENCH_7.json is the overload-with-deadlines
// artifact: a -deadline-ms run on a small slot count, recording the
// 2xx/408/429 split and the shed/deadline counters server-side.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
)

// listFlag collects repeated -fault spec flags.
type listFlag []string

func (c *listFlag) String() string { return strings.Join(*c, ",") }
func (c *listFlag) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cycleload:", err)
		os.Exit(1)
	}
}

// LoadRecord is the serialized result of one load run (BENCH_5.json and
// the CI service-smoke artifact use it).
type LoadRecord struct {
	Schema string     `json:"schema"`
	Label  string     `json:"label"`
	Target string     `json:"target"`
	Config LoadConfig `json:"config"`
	Totals LoadTotals `json:"totals"`
	// ElapsedNs is the whole-run wall time; RPS the completed requests
	// per second over it.
	ElapsedNs int64   `json:"elapsed_ns"`
	RPS       float64 `json:"rps"`
	Latency   Latency `json:"latency_ns"`
	// ServerStats is the server's own counter snapshot after the run
	// (GET /v1/stats, or Service.Stats in -direct mode) — the
	// authoritative engine-session count behind the client-observed
	// batch sizes.
	ServerStats *service.Stats `json:"server_stats,omitempty"`
	// ServerMetrics is the before/after delta of the server's /metrics
	// exposition (-metrics, HTTP mode): server-side latency quantiles
	// and the counter deltas cross-checking the client tally.
	ServerMetrics *ServerMetricsDelta `json:"server_metrics,omitempty"`
}

// LoadConfig echoes the generator parameters.
type LoadConfig struct {
	Clients    int          `json:"clients"`
	Requests   int          `json:"requests"`
	Algo       service.Algo `json:"algo"`
	K          int          `json:"k"`
	Distinct   int          `json:"distinct"`
	Iterations int          `json:"iterations,omitempty"`
	Seed       uint64       `json:"seed"`
	// Inline is the graph-spec template of the many-small-graphs mode
	// (empty = corpus mode).
	Inline string `json:"inline,omitempty"`
	// DeadlineMS is the per-request deadline attached to every request
	// (0 = none): the knob behind the 408/429 outcome classes.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ClientTimeoutMS/TimeoutFrac inject client-side abandonment: every
	// 1/TimeoutFrac-th request is dropped by the client after
	// ClientTimeoutMS (the 499 domain).
	ClientTimeoutMS int64   `json:"client_timeout_ms,omitempty"`
	TimeoutFrac     float64 `json:"timeout_frac,omitempty"`
	// Retries is how many times a 429/503 is retried (HTTP mode;
	// Retry-After honored, exponential backoff otherwise, capped at
	// MaxBackoffMS). 0 = fail immediately, the pre-retry behavior.
	Retries      int   `json:"retries,omitempty"`
	MaxBackoffMS int64 `json:"max_backoff_ms,omitempty"`
	// Faults echoes the armed fault-injection specs of a chaos run.
	Faults []string `json:"faults,omitempty"`
}

// LoadTotals is the outcome tally.
type LoadTotals struct {
	Completed int `json:"completed"`
	Failures  int `json:"failures"`
	// BySource splits completed requests by the server's serve path.
	BySource map[string]int `json:"by_source"`
	// ByClass splits ALL requests (completed and failed) by outcome
	// class: "2xx", "408" (deadline), "429" (shed), "499" (cancelled),
	// "503" (contained panic / draining), "client_timeout" (the client
	// gave up in flight), "net" (transport error), "err" (anything else).
	ByClass map[string]int `json:"by_class"`
	// HitRatio is the fraction of completed requests served without a
	// full computation (cache + coalesced + amplified).
	HitRatio float64 `json:"hit_ratio"`
	// DetByteIdentical is set in det mode: whether every response body
	// per graph was identical across serves.
	DetByteIdentical *bool `json:"det_byte_identical,omitempty"`
	// BatchSizes counts computed requests by the engine batch size the
	// server fused them into (the X-Evencycle-Batch header): key "1" is
	// solo sessions, larger keys are fused batches.
	BatchSizes map[string]int `json:"batch_sizes,omitempty"`
}

// MissBatchRecord is the -vs-solo comparison artifact (BENCH_6.json):
// the same miss-path workload replayed against a solo-session service
// and a fused-batching one, with the responses pinned identical.
type MissBatchRecord struct {
	Schema string     `json:"schema"`
	Label  string     `json:"label"`
	Config LoadConfig `json:"config"`
	// BatchSize / BatchLingerNs / Slots are the batched service's knobs
	// (the solo reference differs only in BatchSize 1).
	BatchSize     int   `json:"batch_size"`
	BatchLingerNs int64 `json:"batch_linger_ns"`
	Slots         int   `json:"slots"`
	// Trials is how many times each path ran; Solo/Batched are the
	// best-throughput trial of each.
	Trials  int         `json:"trials"`
	Solo    *LoadRecord `json:"solo"`
	Batched *LoadRecord `json:"batched"`
	// Speedup is Batched.RPS / Solo.RPS.
	Speedup float64 `json:"speedup"`
	// ResponsesIdentical records the equivalence check: every graph's
	// response body byte-identical between the solo and batched runs.
	ResponsesIdentical bool `json:"responses_identical"`
}

// Latency summarizes the per-request latency sample in nanoseconds.
type Latency struct {
	P50  int64 `json:"p50"`
	P90  int64 `json:"p90"`
	P99  int64 `json:"p99"`
	Max  int64 `json:"max"`
	Mean int64 `json:"mean"`
	// Histogram counts requests at or under each power-of-two bound.
	Histogram []Bucket `json:"histogram"`
}

// Bucket is one histogram cell: latency ≤ LeNs.
type Bucket struct {
	LeNs  int64 `json:"le_ns"`
	Count int   `json:"count"`
}

type sample struct {
	ns     int64
	source string
	batch  int // engine batch size for computed requests (X-Evencycle-Batch)
	name   string
	class  string // outcome class (see LoadTotals.ByClass)
	// retryAfter is the server's Retry-After hint on a 429/503, if any —
	// the sleep the retry loop prefers over its own backoff schedule.
	retryAfter time.Duration
	body       []byte
	// resp holds the unserialized response in -direct mode; the body is
	// marshaled after the timed run so serialization isn't billed to the
	// service.
	resp *service.Response
	err  error
}

func run() error {
	addr := flag.String("addr", "http://localhost:8972", "cycleserved base URL")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	requests := flag.Int("requests", 400, "total requests to issue")
	algoName := flag.String("algo", "det", "algo per request: a detection-service algo name or alias, e.g. even, bounded, odd, det")
	k := flag.Int("k", 2, "half cycle length")
	distinct := flag.Int("distinct", 0, "corpus names to cycle through (0 = all)")
	iterations := flag.Int("iterations", 0, "trial budget per request (0 = server default; randomized algos)")
	seed := flag.Uint64("seed", 1, "request seed (randomized algos)")
	label := flag.String("label", "cycleload", "label recorded in the JSON output")
	jsonOut := flag.Bool("json", false, "emit the LoadRecord JSON instead of text")
	out := flag.String("out", "", "output file (default stdout)")
	minHitRatio := flag.Float64("min-hit-ratio", -1, "fail unless the hit ratio reaches this (negative disables)")
	maxFailures := flag.Int("max-failures", -1, "fail if more requests fail than this (negative disables)")
	inline := flag.String("inline", "", "many-small-graphs mode: generate -distinct graphs from this spec template\n"+
		"client-side (one per derived seed) and ship them inline instead of using the corpus")
	maxSessions := flag.Int("max-engine-sessions", -1, "fail if the server's final engine-session count exceeds this (negative disables)")
	direct := flag.Bool("direct", false, "drive the service in-process instead of over HTTP (requires -inline)")
	vsSolo := flag.Bool("vs-solo", false, "with -direct: replay against solo and batched services and emit the comparison record")
	trials := flag.Int("trials", 1, "with -vs-solo: runs per path, best throughput kept")
	minSpeedup := flag.Float64("min-speedup", -1, "with -vs-solo: fail unless batched/solo rps reaches this (negative disables)")
	slots := flag.Int("slots", 0, "with -direct: service compute slots (0 = service default)")
	batch := flag.Int("batch", 0, "with -direct: max fused batch size (0 = service default, 1 = disable)")
	batchLinger := flag.Duration("batch-linger", 0, "with -direct: batch linger window (0 = service default)")
	deadlineMS := flag.Int64("deadline-ms", 0, "per-request deadline in ms (0 = none); expiry is the 408 class, shedding the 429 class")
	retries := flag.Int("retries", 0, "retry 429/503 responses up to this many times, honoring Retry-After (HTTP mode; 0 = never)")
	maxBackoff := flag.Duration("max-backoff", 2*time.Second, "cap on the per-retry backoff sleep")
	clientTimeout := flag.Duration("timeout", 0, "client-side abandonment: give up on injected requests after this long (0 = never)")
	timeoutFrac := flag.Float64("timeout-frac", 0, "fraction of requests that get the -timeout abandonment (0 = none)")
	chaos := flag.Bool("chaos", false, "chaos acceptance mode (requires -direct -inline): fault-free reference replay, then a fault-injected replay gated on the failure-domain invariants")
	chaosTimeout := flag.Duration("chaos-timeout", 2*time.Minute, "with -chaos: watchdog bound on the fault-injected replay (a hang fails the run)")
	metrics := flag.Bool("metrics", false, "scrape GET /metrics before and after the replay (HTTP mode): record the server-side\n"+
		"latency delta and fail unless the server's success count matches the client's")
	maxServerP99 := flag.Duration("max-server-p99", 0, "with -metrics: fail if the server-side p99 over the run exceeds this (0 = no bound)")
	mutate := flag.String("mutate", "", "mutate-then-detect mode (HTTP only): add -requests random single edges to this corpus name,\n"+
		"detecting after each op and gating mutation lineage + served-fingerprint consistency (see mutate.go)")
	var faults listFlag
	flag.Var(&faults, "fault", "arm a fault-injection point as point:every=N[:limit=M][:delay=D] (repeatable; -direct/-chaos only)")
	flag.Parse()

	algo, err := service.ParseAlgo(*algoName)
	if err != nil {
		return fmt.Errorf("-algo: %w", err)
	}
	if *vsSolo && !*direct {
		return fmt.Errorf("-vs-solo requires -direct")
	}
	if *chaos && !*direct {
		return fmt.Errorf("-chaos requires -direct (the reference/chaos replays share one process)")
	}
	if *direct && *inline == "" {
		return fmt.Errorf("-direct needs -inline (it has no server corpus to draw from)")
	}
	if len(faults) > 0 && !*direct {
		return fmt.Errorf("-fault only applies in -direct mode; arm server-side faults via cycleserved -fault")
	}
	if *metrics && (*direct || *mutate != "") {
		return fmt.Errorf("-metrics scrapes a live server over HTTP; it composes with neither -direct nor -mutate")
	}
	if *mutate != "" {
		if *direct || *inline != "" {
			return fmt.Errorf("-mutate drives a server corpus over HTTP; it composes with neither -direct nor -inline")
		}
		rec, err := mutateRun(*addr, *mutate, *requests, *k, *seed, *label)
		if err != nil {
			return err
		}
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rec)
		}
		_, err = fmt.Fprintln(w, renderMutate(rec))
		return err
	}

	// Build the request stream: corpus references, or inline graphs
	// generated from the -inline spec template.
	var names []string
	var gs []*graph.Graph
	if *inline != "" {
		if *distinct <= 0 {
			return fmt.Errorf("-inline needs -distinct > 0 (how many graphs to generate)")
		}
		names = make([]string, *distinct)
		gs = make([]*graph.Graph, *distinct)
		for i := range gs {
			g, err := graph.FromSpec(*inline, *seed+uint64(i))
			if err != nil {
				return fmt.Errorf("-inline %q: %w", *inline, err)
			}
			names[i] = fmt.Sprintf("inline-%d", i)
			gs[i] = g
		}
	} else {
		var err error
		if names, err = corpusNames(*addr); err != nil {
			return err
		}
		if len(names) == 0 {
			return fmt.Errorf("server has no corpus graphs; start cycleserved with -corpus name=spec")
		}
		if *distinct > 0 && *distinct < len(names) {
			names = names[:*distinct]
		}
	}
	cfg := LoadConfig{
		Clients: *clients, Requests: *requests, Algo: algo, K: *k,
		Distinct: len(names), Iterations: *iterations, Seed: *seed, Inline: *inline,
		DeadlineMS:      *deadlineMS,
		ClientTimeoutMS: clientTimeout.Milliseconds(),
		TimeoutFrac:     *timeoutFrac,
		Retries:         *retries,
		MaxBackoffMS:    maxBackoff.Milliseconds(),
	}
	if *retries > 0 && *direct {
		return fmt.Errorf("-retries only applies over HTTP; -direct failures carry typed errors, not statuses")
	}
	fmt.Fprintf(os.Stderr, "load: %d requests, %d clients, %d distinct graphs, algo=%s k=%d\n",
		*requests, *clients, len(names), algo, *k)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *chaos {
		svcCfg := service.Config{Slots: *slots, CacheEntries: 2*len(gs) + 16,
			BatchSize: *batch, BatchLinger: *batchLinger}
		return chaosRun(w, svcCfg, gs, names, cfg, faults, *label, *jsonOut, *chaosTimeout)
	}
	for _, spec := range faults {
		if err := faultpoint.Set(spec); err != nil {
			return fmt.Errorf("-fault %q: %w", spec, err)
		}
		fmt.Fprintf(os.Stderr, "WARNING: fault injection armed: %s\n", spec)
	}

	if *vsSolo {
		base := service.Config{Slots: *slots, CacheEntries: 2*len(gs) + 16,
			BatchSize: *batch, BatchLinger: *batchLinger}
		batchedCfg := service.New(base).Config() // resolve defaults for the record
		soloCfg := base
		soloCfg.BatchSize = 1

		solo, batched, identical, err := compareRuns(soloCfg, base, gs, names, cfg, *trials)
		if err != nil {
			return err
		}
		rec := &MissBatchRecord{
			Schema: "evencycle-missbatch/v1", Label: *label, Config: cfg,
			BatchSize: batchedCfg.BatchSize, BatchLingerNs: batchedCfg.BatchLinger.Nanoseconds(),
			Slots: batchedCfg.Slots, Trials: *trials,
			Solo: solo, Batched: batched,
			Speedup:            batched.RPS / solo.RPS,
			ResponsesIdentical: identical,
		}
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rec); err != nil {
				return err
			}
		} else {
			renderVsSolo(w, rec)
		}
		if !identical {
			return fmt.Errorf("batched responses differ from solo responses")
		}
		if *maxFailures >= 0 {
			if f := solo.Totals.Failures + batched.Totals.Failures; f > *maxFailures {
				return fmt.Errorf("%d requests failed (max %d)", f, *maxFailures)
			}
		}
		if *maxSessions >= 0 && batched.ServerStats.EngineSessions > int64(*maxSessions) {
			return fmt.Errorf("batched path ran %d engine sessions (max %d — batching did not collapse the miss path)",
				batched.ServerStats.EngineSessions, *maxSessions)
		}
		if *minSpeedup >= 0 && rec.Speedup < *minSpeedup {
			return fmt.Errorf("batched/solo speedup %.2f below required %.2f", rec.Speedup, *minSpeedup)
		}
		return nil
	}

	var rec *LoadRecord
	if *direct {
		svcCfg := service.Config{Slots: *slots, CacheEntries: 2*len(gs) + 16,
			BatchSize: *batch, BatchLinger: *batchLinger}
		rec, _, _, err = directRun(svcCfg, gs, names, cfg)
		if err != nil {
			return err
		}
	} else {
		var before *obs.Exposition
		var err error
		if *metrics {
			if before, err = scrapeMetrics(*addr); err != nil {
				return fmt.Errorf("pre-run scrape: %w", err)
			}
		}
		if rec, err = httpRun(*addr, gs, names, cfg); err != nil {
			return err
		}
		if *metrics {
			after, err := scrapeMetrics(*addr)
			if err != nil {
				return fmt.Errorf("post-run scrape: %w", err)
			}
			if rec.ServerMetrics, err = metricsDelta(before, after); err != nil {
				return err
			}
		}
	}
	rec.Label = *label
	if !algo.Randomized() {
		// DetByteIdentical is filled per run; surface a pointer even when
		// no body repeated so the gate below stays meaningful.
		if rec.Totals.DetByteIdentical == nil {
			identical := true
			rec.Totals.DetByteIdentical = &identical
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	} else {
		renderText(w, rec)
	}

	if *maxFailures >= 0 && rec.Totals.Failures > *maxFailures {
		return fmt.Errorf("%d requests failed (max %d)", rec.Totals.Failures, *maxFailures)
	}
	if *minHitRatio >= 0 && rec.Totals.HitRatio < *minHitRatio {
		return fmt.Errorf("hit ratio %.3f below required %.3f", rec.Totals.HitRatio, *minHitRatio)
	}
	if *maxSessions >= 0 {
		if rec.ServerStats == nil {
			return fmt.Errorf("-max-engine-sessions set but server stats were unavailable")
		}
		if rec.ServerStats.EngineSessions > int64(*maxSessions) {
			return fmt.Errorf("server ran %d engine sessions (max %d — batching did not collapse the miss path)",
				rec.ServerStats.EngineSessions, *maxSessions)
		}
	}
	if rec.Totals.DetByteIdentical != nil && !*rec.Totals.DetByteIdentical {
		return fmt.Errorf("deterministic-mode responses were not byte-identical per graph")
	}
	if rec.ServerMetrics != nil {
		if err := checkServerMetrics(rec.ServerMetrics, rec, *maxServerP99); err != nil {
			return err
		}
	}
	return nil
}

// replay drives the closed loop: `clients` goroutines each keep one
// request in flight until `requests` have been issued.
func replay(requests, clients int, do func(i int) sample) ([]sample, time.Duration) {
	samples := make([]sample, requests)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				samples[i] = do(i)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// httpRun replays the workload over HTTP. Request bodies are marshaled
// once per distinct graph up front — re-encoding the edge list on every
// request would bill client CPU against the server on a shared host.
func httpRun(addr string, gs []*graph.Graph, names []string, cfg LoadConfig) (*LoadRecord, error) {
	bodies := make([][]byte, len(names))
	for i := range names {
		wire := &service.WireRequest{
			Algo:       string(cfg.Algo),
			K:          cfg.K,
			Seed:       cfg.Seed,
			Iterations: cfg.Iterations,
			DeadlineMS: cfg.DeadlineMS,
		}
		if gs != nil {
			wire.Graph = &service.WireGraph{N: gs[i].NumNodes(), Edges: gs[i].Edges()}
		} else {
			wire.Corpus = names[i]
		}
		var err error
		if bodies[i], err = json.Marshal(wire); err != nil {
			return nil, err
		}
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	stride := timeoutStride(cfg.TimeoutFrac)
	samples, elapsed := replay(cfg.Requests, cfg.Clients, func(i int) sample {
		ctx := context.Background()
		if stride > 0 && i%stride == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(cfg.ClientTimeoutMS)*time.Millisecond)
			defer cancel()
		}
		return oneRequestRetry(ctx, client, addr, bodies[i%len(names)], names[i%len(names)],
			cfg.Retries, time.Duration(cfg.MaxBackoffMS)*time.Millisecond)
	})
	rec := summarize(samples, elapsed)
	rec.Target = addr
	rec.Config = cfg
	if st, err := serverStats(addr); err != nil {
		fmt.Fprintf(os.Stderr, "warning: GET /v1/stats failed: %v\n", err)
	} else {
		rec.ServerStats = st
	}
	if !cfg.Algo.Randomized() {
		identical := detBodiesIdentical(samples)
		rec.Totals.DetByteIdentical = &identical
	}
	return rec, nil
}

// directRun replays the workload in-process against a fresh Service,
// returning the run record, the per-graph response bodies (for
// cross-path equivalence checks), and the raw samples (for per-request
// chaos gating).
func directRun(svcCfg service.Config, gs []*graph.Graph, names []string, cfg LoadConfig) (*LoadRecord, map[string][]byte, []sample, error) {
	svc := service.New(svcCfg)
	stride := timeoutStride(cfg.TimeoutFrac)
	samples, elapsed := replay(cfg.Requests, cfg.Clients, func(i int) sample {
		name := names[i%len(names)]
		req := &service.Request{
			Graph: gs[i%len(gs)], Algo: cfg.Algo, K: cfg.K,
			Seed: cfg.Seed, Iterations: cfg.Iterations,
			Deadline: time.Duration(cfg.DeadlineMS) * time.Millisecond,
		}
		ctx := context.Background()
		if stride > 0 && i%stride == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(cfg.ClientTimeoutMS)*time.Millisecond)
			defer cancel()
		}
		start := time.Now()
		resp, info, err := svc.DoInfo(ctx, req)
		ns := time.Since(start).Nanoseconds()
		if err != nil {
			return sample{ns: ns, name: name, class: classOfErr(err), err: err}
		}
		return sample{ns: ns, source: string(info.Source), batch: info.Batch, name: name, class: "2xx", resp: resp}
	})
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.resp != nil {
			if s.body, s.err = json.Marshal(s.resp); s.err != nil {
				s.body = nil
			}
		}
	}
	rec := summarize(samples, elapsed)
	rec.Target = "in-process"
	rec.Config = cfg
	st := svc.Stats()
	rec.ServerStats = &st
	if !cfg.Algo.Randomized() {
		identical := detBodiesIdentical(samples)
		rec.Totals.DetByteIdentical = &identical
	}
	return rec, firstBodies(samples), samples, nil
}

// classOfErr maps a direct-mode failure onto its outcome class — the
// same domains an HTTP client would read off the status line.
func classOfErr(err error) string {
	switch {
	case errors.Is(err, service.ErrDeadline):
		return "408"
	case errors.Is(err, service.ErrShed):
		return "429"
	case errors.Is(err, service.ErrCancelled):
		return "499"
	case errors.Is(err, service.ErrInternal):
		return "503"
	case errors.Is(err, context.DeadlineExceeded):
		return "client_timeout"
	default:
		return "err"
	}
}

// timeoutStride converts -timeout-frac into "every Nth request": 0.25 →
// every 4th. Zero disables injection.
func timeoutStride(frac float64) int {
	if frac <= 0 {
		return 0
	}
	stride := int(1/frac + 0.5)
	if stride < 1 {
		stride = 1
	}
	return stride
}

// compareRuns interleaves `trials` solo and batched replays (each
// against a fresh service, so every trial exercises the pure miss path)
// and keeps each path's best-throughput record. Interleaving means a
// burst of host interference lands on both paths alike instead of
// skewing whichever side it happened to hit. All trials of both paths
// must produce byte-identical per-graph responses.
func compareRuns(soloCfg, batchedCfg service.Config, gs []*graph.Graph, names []string, cfg LoadConfig, trials int) (solo, batched *LoadRecord, identical bool, err error) {
	if trials < 1 {
		trials = 1
	}
	var ref map[string][]byte
	identical = true
	for t := 0; t < trials; t++ {
		for _, p := range []struct {
			cfg  service.Config
			best **LoadRecord
		}{{soloCfg, &solo}, {batchedCfg, &batched}} {
			rec, bodies, _, rerr := directRun(p.cfg, gs, names, cfg)
			if rerr != nil {
				return nil, nil, false, rerr
			}
			if ref == nil {
				ref = bodies
			} else if !bodiesEqual(ref, bodies) {
				identical = false
			}
			if *p.best == nil || rec.RPS > (*p.best).RPS {
				*p.best = rec
			}
		}
	}
	return solo, batched, identical, nil
}

// ChaosRecord is the -chaos artifact: one fault-free reference replay
// and one fault-injected replay of the same workload, with the
// failure-domain invariants that gate the run.
type ChaosRecord struct {
	Schema string     `json:"schema"`
	Label  string     `json:"label"`
	Config LoadConfig `json:"config"`
	// Faults are the armed injection specs; Fired counts how often each
	// point actually triggered during the chaos replay.
	Faults []string         `json:"faults"`
	Fired  map[string]int64 `json:"fired"`
	// Reference is the fault-free replay; Chaos the injected one.
	Reference *LoadRecord `json:"reference"`
	Chaos     *LoadRecord `json:"chaos"`
	// The gates: every chaos response matched its reference byte for
	// byte, every failure carried the typed taxonomy, and the service
	// ended idle (no leaked admission slots or queue entries).
	UnaffectedIdentical bool `json:"unaffected_identical"`
	ContainedFailures   bool `json:"contained_failures"`
	DrainedClean        bool `json:"drained_clean"`
}

// defaultChaosFaults is the storm armed when -chaos is given without
// explicit -fault specs: periodic round stalls plus a bounded number of
// detector and batch-leader crashes.
var defaultChaosFaults = []string{
	"round-stall:every=11:delay=200us",
	"detector-panic:every=2:limit=4",
	"batch-leader-crash:every=2:limit=3",
}

// chaosRun is the robustness acceptance harness (see the package
// comment). It exits non-zero if any failure-domain invariant breaks.
func chaosRun(w io.Writer, svcCfg service.Config, gs []*graph.Graph, names []string, cfg LoadConfig, faults []string, label string, jsonOut bool, watchdog time.Duration) error {
	if len(faults) == 0 {
		faults = defaultChaosFaults
	}
	cfg.Faults = faults

	// Reference replay: fault-free, no client abandonment — every graph's
	// canonical response body.
	faultpoint.Reset()
	refCfg := cfg
	refCfg.ClientTimeoutMS, refCfg.TimeoutFrac = 0, 0
	refRec, refBodies, _, err := directRun(svcCfg, gs, names, refCfg)
	if err != nil {
		return err
	}
	if refRec.Totals.Failures > 0 {
		return fmt.Errorf("reference replay had %d failures — fix the workload before injecting faults", refRec.Totals.Failures)
	}

	for _, spec := range faults {
		if err := faultpoint.Set(spec); err != nil {
			return fmt.Errorf("-fault %q: %w", spec, err)
		}
		fmt.Fprintf(os.Stderr, "chaos: armed %s\n", spec)
	}
	defer faultpoint.Reset()

	// Chaos replay under a watchdog: a fault that wedges a request (lost
	// wakeup, leaked slot) must fail the run, not hang CI.
	type result struct {
		rec     *LoadRecord
		samples []sample
		err     error
	}
	resc := make(chan result, 1)
	go func() {
		rec, _, samples, err := directRun(svcCfg, gs, names, cfg)
		resc <- result{rec, samples, err}
	}()
	var res result
	select {
	case res = <-resc:
	case <-time.After(watchdog):
		return fmt.Errorf("chaos replay hung: not finished after %v (fault left a request stuck)", watchdog)
	}
	if res.err != nil {
		return res.err
	}

	fired := make(map[string]int64)
	for p, n := range faultpoint.Fired() {
		fired[string(p)] = n
	}
	rec := &ChaosRecord{
		Schema: "evencycle-chaos/v1", Label: label, Config: cfg,
		Faults: faults, Fired: fired,
		Reference: refRec, Chaos: res.rec,
		UnaffectedIdentical: true, ContainedFailures: true,
	}
	for _, s := range res.samples {
		switch {
		case s.err == nil:
			if !bytes.Equal(refBodies[s.name], s.body) {
				fmt.Fprintf(os.Stderr, "chaos: %s diverged from reference:\n  %s\n  %s\n", s.name, refBodies[s.name], s.body)
				rec.UnaffectedIdentical = false
			}
		case s.class == "408" || s.class == "429" || s.class == "499" ||
			s.class == "503" || s.class == "client_timeout":
			// contained: the failure carries the typed taxonomy
		default:
			fmt.Fprintf(os.Stderr, "chaos: untyped failure (%s): %v\n", s.class, s.err)
			rec.ContainedFailures = false
		}
	}
	st := res.rec.ServerStats
	rec.DrainedClean = st != nil && st.InFlight == 0 && st.Queued == 0

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return err
		}
	} else {
		renderChaos(w, rec)
	}

	var total int64
	for _, n := range rec.Fired {
		total += n
	}
	switch {
	case total == 0:
		return fmt.Errorf("chaos gate: no armed faultpoint fired — the replay exercised nothing")
	case !rec.ContainedFailures:
		return fmt.Errorf("chaos gate: a failure escaped the typed error taxonomy")
	case !rec.UnaffectedIdentical:
		return fmt.Errorf("chaos gate: a response served under faults diverged from its fault-free reference")
	case !rec.DrainedClean:
		return fmt.Errorf("chaos gate: service not idle after the replay (leaked slot or queue entry)")
	}
	return nil
}

func renderChaos(w io.Writer, rec *ChaosRecord) {
	fmt.Fprintf(w, "chaos replay: %d requests, %d clients, faults %v\n",
		rec.Config.Requests, rec.Config.Clients, rec.Faults)
	fmt.Fprintf(w, "  fired: %v\n", rec.Fired)
	fmt.Fprintf(w, "  reference: %d ok; chaos: %d ok, %d failed, classes %v\n",
		rec.Reference.Totals.Completed, rec.Chaos.Totals.Completed,
		rec.Chaos.Totals.Failures, rec.Chaos.Totals.ByClass)
	fmt.Fprintf(w, "  unaffected identical: %v  contained failures: %v  drained clean: %v\n",
		rec.UnaffectedIdentical, rec.ContainedFailures, rec.DrainedClean)
}

// firstBodies maps each graph name to its first successful response body.
func firstBodies(samples []sample) map[string][]byte {
	m := make(map[string][]byte)
	for _, s := range samples {
		if s.err != nil || s.body == nil {
			continue
		}
		if _, ok := m[s.name]; !ok {
			m[s.name] = s.body
		}
	}
	return m
}

func bodiesEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, body := range a {
		if !bytes.Equal(b[name], body) {
			fmt.Fprintf(os.Stderr, "responses differ for %s:\n  %s\n  %s\n", name, body, b[name])
			return false
		}
	}
	return true
}

func serverStats(addr string) (*service.Stats, error) {
	resp, err := http.Get(addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func corpusNames(addr string) ([]string, error) {
	resp, err := http.Get(addr + "/v1/corpus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/corpus: %s", resp.Status)
	}
	var entries []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names, nil
}

func oneRequest(ctx context.Context, client *http.Client, addr string, body []byte, name string) sample {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		return sample{name: name, class: "err", err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		class := "net"
		if errors.Is(err, context.DeadlineExceeded) {
			// The injected client timeout fired: we abandoned the request
			// in flight (server-side this is the 499 domain).
			class = "client_timeout"
		}
		return sample{ns: time.Since(start).Nanoseconds(), name: name, class: class, err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		class := "net"
		if errors.Is(err, context.DeadlineExceeded) {
			class = "client_timeout"
		}
		return sample{ns: ns, name: name, class: class, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		s := sample{ns: ns, name: name, class: strconv.Itoa(resp.StatusCode),
			err: fmt.Errorf("%s: %s", resp.Status, payload)}
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 0 {
			s.retryAfter = time.Duration(sec) * time.Second
		}
		return s
	}
	batch, _ := strconv.Atoi(resp.Header.Get("X-Evencycle-Batch"))
	return sample{
		ns:     ns,
		source: resp.Header.Get("X-Evencycle-Source"),
		batch:  batch,
		name:   name,
		class:  "2xx",
		body:   payload,
	}
}

// retryable reports whether a response class is worth re-sending: 429
// (shed / deadline-cannot-cover-queue) and 503 (draining, store failure)
// are explicit back-off-and-come-back signals. Everything else — 4xx
// request defects, 408 deadline expiry, network errors mid-body — either
// will not improve on resend or may have committed server-side work.
func retryable(class string) bool {
	return class == "429" || class == "503"
}

// oneRequestRetry wraps oneRequest with a bounded retry loop for
// back-pressure responses. The sleep between attempts prefers the
// server's Retry-After hint when one came back, otherwise an exponential
// schedule starting at 25ms; either way it is capped at maxBackoff and
// jittered ±25% so a fleet of shed clients does not re-converge on the
// same instant. A request that succeeds after at least one retry is
// classed "2xx_retried" so summaries separate clean admissions from
// recovered ones; the reported latency covers only the final attempt
// (queueing delay the client chose to insert is not service latency).
func oneRequestRetry(ctx context.Context, client *http.Client, addr string, body []byte, name string, retries int, maxBackoff time.Duration) sample {
	s := oneRequest(ctx, client, addr, body, name)
	backoff := 25 * time.Millisecond
	for attempt := 0; attempt < retries && retryable(s.class); attempt++ {
		sleep := backoff
		if s.retryAfter > 0 {
			sleep = s.retryAfter
		}
		if maxBackoff > 0 && sleep > maxBackoff {
			sleep = maxBackoff
		}
		sleep = time.Duration(float64(sleep) * (0.75 + 0.5*rand.Float64()))
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return s
		}
		backoff *= 2
		s = oneRequest(ctx, client, addr, body, name)
		if s.class == "2xx" {
			s.class = "2xx_retried"
		}
	}
	return s
}

func summarize(samples []sample, elapsed time.Duration) *LoadRecord {
	rec := &LoadRecord{
		Schema:    "evencycle-service-load/v1",
		ElapsedNs: elapsed.Nanoseconds(),
		Totals:    LoadTotals{BySource: make(map[string]int), ByClass: make(map[string]int)},
	}
	var lats []int64
	var sum int64
	var failuresShown int
	for _, s := range samples {
		if s.class != "" {
			rec.Totals.ByClass[s.class]++
		}
		if s.err != nil {
			rec.Totals.Failures++
			// An overload run fails hundreds of requests by design; cap
			// the per-request noise and let by_class carry the tally.
			if failuresShown < 10 {
				fmt.Fprintf(os.Stderr, "request failed: %v\n", s.err)
				failuresShown++
			} else if failuresShown == 10 {
				fmt.Fprintln(os.Stderr, "(further failures suppressed; see totals.by_class)")
				failuresShown++
			}
			continue
		}
		rec.Totals.Completed++
		rec.Totals.BySource[s.source]++
		if s.batch > 0 {
			if rec.Totals.BatchSizes == nil {
				rec.Totals.BatchSizes = make(map[string]int)
			}
			rec.Totals.BatchSizes[strconv.Itoa(s.batch)]++
		}
		lats = append(lats, s.ns)
		sum += s.ns
	}
	if rec.Totals.Completed > 0 {
		saved := rec.Totals.Completed - rec.Totals.BySource[string(service.SourceComputed)]
		rec.Totals.HitRatio = float64(saved) / float64(rec.Totals.Completed)
		rec.RPS = float64(rec.Totals.Completed) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		slices.Sort(lats)
		q := func(p float64) int64 {
			i := int(p * float64(len(lats)-1))
			return lats[i]
		}
		rec.Latency = Latency{
			P50: q(0.50), P90: q(0.90), P99: q(0.99),
			Max:  lats[len(lats)-1],
			Mean: sum / int64(len(lats)),
		}
		// Power-of-two buckets from 4µs up to the max.
		for le := int64(4096); ; le *= 2 {
			n, _ := slices.BinarySearch(lats, le+1)
			rec.Latency.Histogram = append(rec.Latency.Histogram, Bucket{LeNs: le, Count: n})
			if le >= rec.Latency.Max {
				break
			}
		}
	}
	return rec
}

// detBodiesIdentical checks the determinism acceptance bar: for each
// graph, every successful det-mode response body must be byte-identical
// no matter which serve path produced it.
func detBodiesIdentical(samples []sample) bool {
	first := make(map[string][]byte)
	ok := true
	for _, s := range samples {
		if s.err != nil || s.body == nil {
			continue
		}
		if prev, seen := first[s.name]; seen {
			if !bytes.Equal(prev, s.body) {
				fmt.Fprintf(os.Stderr, "det responses differ for %s:\n  %s\n  %s\n", s.name, prev, s.body)
				ok = false
			}
		} else {
			first[s.name] = s.body
		}
	}
	return ok
}

func renderText(w io.Writer, rec *LoadRecord) {
	fmt.Fprintf(w, "completed %d requests in %s (%.1f req/s), %d failures\n",
		rec.Totals.Completed, time.Duration(rec.ElapsedNs).Round(time.Millisecond),
		rec.RPS, rec.Totals.Failures)
	fmt.Fprintf(w, "serve paths:")
	for _, src := range []string{"computed", "amplified", "coalesced", "cache"} {
		if n := rec.Totals.BySource[src]; n > 0 {
			fmt.Fprintf(w, " %s=%d", src, n)
		}
	}
	fmt.Fprintf(w, "  hit ratio %.3f\n", rec.Totals.HitRatio)
	if len(rec.Totals.ByClass) > 1 || rec.Totals.ByClass["2xx"] != rec.Totals.Completed {
		classes := make([]string, 0, len(rec.Totals.ByClass))
		for c := range rec.Totals.ByClass {
			classes = append(classes, c)
		}
		slices.Sort(classes)
		fmt.Fprintf(w, "outcome classes:")
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, rec.Totals.ByClass[c])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "latency: p50=%s p90=%s p99=%s max=%s\n",
		time.Duration(rec.Latency.P50), time.Duration(rec.Latency.P90),
		time.Duration(rec.Latency.P99), time.Duration(rec.Latency.Max))
	if len(rec.Totals.BatchSizes) > 0 {
		sizes := make([]int, 0, len(rec.Totals.BatchSizes))
		for k := range rec.Totals.BatchSizes {
			if v, err := strconv.Atoi(k); err == nil {
				sizes = append(sizes, v)
			}
		}
		slices.Sort(sizes)
		fmt.Fprintf(w, "engine batch sizes:")
		for _, sz := range sizes {
			fmt.Fprintf(w, " %d×%d", sz, rec.Totals.BatchSizes[strconv.Itoa(sz)])
		}
		fmt.Fprintln(w)
	}
	if rec.ServerStats != nil {
		fmt.Fprintf(w, "server sessions: engine=%d (fused=%d solo=%d), batches=%d mean=%.2f max=%d\n",
			rec.ServerStats.EngineSessions, rec.ServerStats.FusedSessions, rec.ServerStats.SoloSessions,
			rec.ServerStats.BatchesFormed, rec.ServerStats.MeanBatchSize, rec.ServerStats.MaxBatchSize)
	}
	if rec.ServerMetrics != nil {
		fmt.Fprintf(w, "server-side latency (from /metrics): p50=%s p99=%s over %.0f timed requests\n",
			time.Duration(rec.ServerMetrics.P50Ns), time.Duration(rec.ServerMetrics.P99Ns),
			rec.ServerMetrics.DurationCount)
	}
	if rec.Totals.DetByteIdentical != nil {
		fmt.Fprintf(w, "det responses byte-identical per graph: %v\n", *rec.Totals.DetByteIdentical)
	}
}

func renderVsSolo(w io.Writer, rec *MissBatchRecord) {
	fmt.Fprintf(w, "miss-path comparison (%d×%q, %d requests, %d clients, algo=%s, best of %d):\n",
		rec.Config.Distinct, rec.Config.Inline, rec.Config.Requests, rec.Config.Clients,
		rec.Config.Algo, rec.Trials)
	for _, p := range []struct {
		name string
		r    *LoadRecord
	}{{"solo", rec.Solo}, {"batched", rec.Batched}} {
		fmt.Fprintf(w, "  %-8s %9.1f req/s  p50=%-10s sessions=%d",
			p.name, p.r.RPS, time.Duration(p.r.Latency.P50), p.r.ServerStats.EngineSessions)
		if p.r.ServerStats.BatchesFormed > 0 {
			fmt.Fprintf(w, " (batches=%d mean=%.2f max=%d)",
				p.r.ServerStats.BatchesFormed, p.r.ServerStats.MeanBatchSize, p.r.ServerStats.MaxBatchSize)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  speedup %.2fx (batch %d, linger %s), responses identical: %v\n",
		rec.Speedup, rec.BatchSize, time.Duration(rec.BatchLingerNs), rec.ResponsesIdentical)
}
