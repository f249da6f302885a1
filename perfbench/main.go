// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload against the code in the checkout it is
// started from and prints every metric by name and unit; the last line
// of standard output is a JSON object
//
//	{"correct":true,"attempted":N,"failed":F,"metrics":{name:{value,unit}}}
//
// carrying the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). Any incorrect output fails the run: the violation is
// printed to standard error and the exit code is 1.
//
// Run it through run.sh, which builds this program and cmd/cycleserved
// from the checkout first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// opts are the command-line settings of one invocation.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	server   string  // path of the cycleserved binary under test
	outDir   string  // where spans and the run record are written
	scale    float64 // input-size multiplier: 1, except in the tiny-scale tests
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one traffic mix; run measures it and fills the report.
type workload struct {
	name string
	run  func(o *opts, rep *report) error
}

var workloads = []workload{
	{"serve-hot", runServeHot},
	{"serve-miss", runServeMiss},
	{"paper-detect", runPaperDetect},
	{"mutate-churn", runMutateChurn},
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var v *violation
		if errors.As(err, &v) && res != nil {
			printResult(res)
		}
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if err := rep.save(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		os.Exit(1)
	}
	printResult(res)
}

func parseFlags(args []string) (*opts, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &opts{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: serve-hot, serve-miss, paper-detect or mutate-churn")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics and the ledger")
	fs.StringVar(&o.server, "server", "", "path of the cycleserved binary to drive")
	fs.StringVar(&o.outDir, "out", ".bench_build/runs", "directory for spans and run records")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.trace = trace == 1
	o.scale = 1
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if findWorkload(o.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.server != "" {
		abs, err := filepath.Abs(o.server)
		if err != nil {
			return nil, err
		}
		o.server = abs
	}
	return o, nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload runs one invocation and assembles the final result line.
// A correctness violation returns a *violation error (with the result
// marked incorrect); any other error means the run could not complete.
func runWorkload(o *opts) (*result, *report, error) {
	w := findWorkload(o.workload)
	rep := newReport(o)
	steal0, total0 := cpuTimes()
	err := w.run(o, rep)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		rep.record.StealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	if err != nil {
		return &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}, rep, err
	}
	if rep.attempted < 1 {
		return nil, rep, fmt.Errorf("workload %s attempted no operation", o.workload)
	}
	m, err := rep.contract()
	if err != nil {
		return nil, rep, err
	}
	return &result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: m}, rep, nil
}

func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	fmt.Println(string(b))
}

// deadline returns when a measured loop that starts now must stop.
func (o *opts) deadline() time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}
