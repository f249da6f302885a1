package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// serverBin is cycleserved built once from the checkout for the tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "cycleserved")
	out, err := exec.Command("go", "build", "-o", serverBin, "repro/cmd/cycleserved").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building cycleserved: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkMetrics reads the metric names and units of BENCHMARK.json.
func benchmarkMetrics(t *testing.T) (e2e, layers map[string]string, names []string) {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return e2e, layers, names
}

// TestContractMatchesBenchmarkJSON pins the metric lists in the code to
// BENCHMARK.json, and the workload list to the registered workloads.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	e2e, layers, names := benchmarkMetrics(t)
	for want, have := range map[string][2]map[string]string{"end_to_end": {e2e, contractE2E}, "per_layer": {layers, contractLayers}} {
		if len(have[0]) != len(have[1]) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", want, len(have[0]), len(have[1]))
		}
		for name, unit := range have[0] {
			if have[1][name] != unit {
				t.Errorf("%s: %s is %q in BENCHMARK.json, %q in the code", want, name, unit, have[1][name])
			}
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code registers %d", len(names), len(workloads))
	}
	for _, n := range names {
		if findWorkload(n) == nil {
			t.Errorf("BENCHMARK.json workload %s is not registered", n)
		}
	}
}

// TestTinyPass runs every workload at a tiny scale, untraced and traced,
// and checks that every BENCHMARK.json metric is printed with its unit.
func TestTinyPass(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	e2e, layers, names := benchmarkMetrics(t)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			o := &opts{workload: name, seed: 3, seconds: 0.6, trace: trace, server: serverBin, outDir: t.TempDir(), scale: 0.05}
			res, rep, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := e2e
			if trace {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: result %+v", name, trace, res)
			}
			var sb strings.Builder
			rep.print(&sb)
			if trace && !strings.Contains(sb.String(), "ledger unexplained") {
				t.Errorf("%s: traced report has no ledger:\n%s", name, sb.String())
			}
		}
	}
}

// c4Tail is a 4-cycle 0-1-2-3 with a pendant path 3-4-5.
func c4Tail() *inst {
	return &inst{name: "c4", n: 6, edges: [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}, {4, 5}}}
}

func isViolation(err error) bool {
	var v *violation
	return errors.As(err, &v)
}

func TestGateRejectsTamperedDetBody(t *testing.T) {
	gt := newGate()
	gt.register(c4Tail())
	good := `{"algo":"det","k":2,"fingerprint":"f","found":true,"witness":[0,1,2,3],"found_len":4,"rounds":12,"messages":40,"bits":0,"max_congestion":1,"overflowed":false,"iterations":0}` + "\n"
	if _, err := gt.check("c4", "det", 2, []byte(good)); err != nil {
		t.Fatalf("good body rejected: %v", err)
	}
	traced := strings.TrimSuffix(good, "}\n") + `,"trace_ns":{"engine":5}}` + "\n"
	if _, err := gt.check("c4", "det", 2, []byte(traced)); err != nil {
		t.Fatalf("traced copy of the good body rejected: %v", err)
	}
	tampered := strings.Replace(good, `"rounds":12`, `"rounds":13`, 1)
	if _, err := gt.check("c4", "det", 2, []byte(tampered)); !isViolation(err) {
		t.Fatalf("tampered det body: err = %v, want a violation", err)
	}
}

func TestGateRejectsBadWitness(t *testing.T) {
	for name, body := range map[string]string{
		"missing edge":  `{"algo":"even","k":2,"found":true,"witness":[0,1,2,4]}`,
		"wrong length":  `{"algo":"even","k":2,"found":true,"witness":[0,1,2]}`,
		"repeated node": `{"algo":"even","k":2,"found":true,"witness":[0,1,0,3]}`,
	} {
		gt := newGate()
		gt.register(c4Tail())
		if _, err := gt.check("c4", "even", 2, []byte(body)); !isViolation(err) {
			t.Errorf("%s: err = %v, want a violation", name, err)
		}
	}
}

func TestGateRejectsFoundOnFreeGraph(t *testing.T) {
	gt := newGate()
	// A 6-cycle is C4-free; a "witness" along it cannot close a C4, and
	// the construction guarantee catches a Found even before that.
	free := &inst{name: "c6", n: 6, girth: 6, edges: [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}}
	gt.register(free)
	if _, err := gt.check("c6", "det", 2, []byte(`{"algo":"det","k":2,"found":true,"witness":[0,1,2,3]}`)); !isViolation(err) {
		t.Fatalf("Found on a C4-free graph: err = %v, want a violation", err)
	}
	if _, err := gt.check("c6", "det", 2, []byte(`{"algo":"det","k":2,"found":false}`)); err != nil {
		t.Fatalf("NotFound on a C4-free graph rejected: %v", err)
	}
}

func TestGeneratorsKeepTheirGuarantees(t *testing.T) {
	rng := newRNG(9, 9)
	for _, in := range []*inst{highGirth(rng, "hg", 300, 360, 7), projectivePlane("pg", 5), relabel(rng, projectivePlane("pg", 7))} {
		g := in.graphOf()
		if girth := graph.Girth(g); girth < in.girth {
			t.Errorf("%s: girth %d, construction promises >= %d", in.name, girth, in.girth)
		}
	}
	p := plant(rng, highGirth(rng, "p", 200, 240, 7), 6)
	if !graph.HasCycleLen(p.graphOf(), 6) {
		t.Error("planted C6 missing")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := median(xs); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

// TestHistMissingFamilyIsAnError pins that a histogram the server no
// longer exposes fails the traced run instead of reading as 0.
func TestHistMissingFamilyIsAnError(t *testing.T) {
	exp, err := obs.ParseExposition(strings.NewReader("# HELP other_total Other.\n# TYPE other_total counter\nother_total 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hist(exp, "evencycle_engine_session_seconds"); err == nil {
		t.Fatal("hist of an absent family: no error")
	}
	if v := histMean(&obs.HistogramSnapshot{}); !math.IsNaN(v) {
		t.Fatalf("mean of an empty histogram = %v, want NaN (not measured)", v)
	}
}
