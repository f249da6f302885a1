package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The metric names of BENCHMARK.json. Every workload prints all of
// contractE2E on an untraced run and all of contractLayers on a traced
// run; bench_test.go checks these lists against BENCHMARK.json.
var contractE2E = map[string]string{
	"setup_s":        "s",
	"p50_ms":         "ms",
	"ops_per_s":      "1/s",
	"peak_rss_mb":    "MiB",
	"model_rounds":   "rounds",
	"model_messages": "msgs",
}

var contractLayers = map[string]string{
	"load.late_ms":                 "ms",
	"load.sent":                    "count",
	"load.failed":                  "count",
	"graph.build_us":               "us",
	"graph.fingerprint_us":         "us",
	"congest.engine_ms":            "ms",
	"congest.session_ms":           "ms",
	"congest.rounds_per_session":   "rounds",
	"congest.sessions_per_verdict": "ratio",
	"obs.trace_overhead_pct":       "%",
	"ledger.unexplained_us":        "us",
}

// report collects everything one invocation measured.
type report struct {
	o                 *opts
	attempted, failed int64
	e2e               map[string]metric // end-to-end, including workload-only ones
	layers            map[string]metric // per-layer (traced run)
	ledger            []ledgerRow
	notes             []string
	samples           map[string][]float64 // raw per-layer samples
	spans             *spanLog
	record            runRecord
}

// ledgerRow is one layer's self time on the median request.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_us"`
	Source string  `json:"source"`
}

// runRecord pins a result to the code and host it was measured on.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	ServerHash string  `json:"server_sha256,omitempty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu_model"`
	Started    string  `json:"started"`
	// StealPct is the share of the host's CPU time the hypervisor gave
	// to other guests during the run (/proc/stat steal): on a shared
	// host, runs with a high share read slower.
	StealPct float64 `json:"steal_pct"`
}

func newReport(o *opts) *report {
	return &report{
		o:       o,
		e2e:     map[string]metric{},
		layers:  map[string]metric{},
		samples: map[string][]float64{},
		spans:   &spanLog{},
		record: runRecord{
			Workload:   o.workload,
			Seed:       o.seed,
			Seconds:    o.seconds,
			Trace:      o.trace,
			Commit:     commit(),
			ServerHash: fileHash(o.server),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			CPU:        cpuModel(),
			Started:    time.Now().UTC().Format(time.RFC3339),
		},
	}
}

// setE2E and setLayer record a metric. A value that is not finite (a
// median of no samples) is not a measurement: it is left out with a
// note, so a bounded metric without samples fails the run in contract.
func (r *report) setE2E(name string, v float64, unit string) { r.set(r.e2e, name, v, unit) }
func (r *report) setLayer(name string, v float64, unit string) {
	r.set(r.layers, name, v, unit)
}

func (r *report) set(into map[string]metric, name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		delete(into, name)
		r.note("%s: no samples", name)
		return
	}
	into[name] = metric{v, unit}
}
func (r *report) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// contract returns exactly the metrics BENCHMARK.json lists for this
// kind of run; a missing or non-finite one is an error.
func (r *report) contract() (map[string]metric, error) {
	names, have := contractE2E, r.e2e
	if r.o.trace {
		names, have = contractLayers, r.layers
	}
	out := make(map[string]metric, len(names))
	for name, unit := range names {
		m, ok := have[name]
		if !ok || m.Unit != unit {
			return nil, fmt.Errorf("workload %s did not measure %s (%s): got %+v", r.o.workload, name, unit, m)
		}
		out[name] = m
	}
	return out, nil
}

// print writes the human-readable report: run record, every metric by
// name and unit, notes and the ledger.
func (r *report) print(w io.Writer) {
	rec, _ := json.Marshal(r.record)
	fmt.Fprintf(w, "record %s\n", rec)
	printMetrics(w, "e2e", r.e2e)
	printMetrics(w, "layer", r.layers)
	for _, row := range r.ledger {
		fmt.Fprintf(w, "ledger %-28s %12.1f us  (%s)\n", row.Layer, row.SelfUS, row.Source)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-30s %14.4f %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// save writes the run record with every metric, and the spans, under
// the output directory.
func (r *report) save(o *opts) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%v", o.workload, o.seed, o.trace))
	body, err := json.MarshalIndent(struct {
		Record runRecord         `json:"record"`
		E2E    map[string]metric `json:"end_to_end"`
		Layers map[string]metric `json:"per_layer,omitempty"`
		Ledger []ledgerRow       `json:"ledger,omitempty"`
		Notes  []string          `json:"notes,omitempty"`
	}{r.record, r.e2e, r.layers, r.ledger, r.notes}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", body, 0o644); err != nil {
		return err
	}
	if len(r.spans.spans) == 0 {
		return nil
	}
	return r.spans.write(base + ".spans.jsonl")
}

// commit names the code under test: the git revision when the checkout
// is a repository, else "unknown" (the server binary's hash still pins
// the exact build).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fileHash(path string) string {
	if path == "" {
		return ""
	}
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes reads the aggregate steal and total jiffies of /proc/stat.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = v
		}
		total += v
	}
	return steal, total
}

// peakRSSMB reads VmHWM (peak resident set) of a process in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
