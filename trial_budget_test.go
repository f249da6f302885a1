package evencycle

// Result-invariance pins for the CPU-budget rule (sched.Budget): the
// trial-based facade detectors run their trials concurrently by default,
// and then on serial engine sessions unless WithWorkers says otherwise.
// Neither count may show in any field of any result. CI runs this test
// under -race: concurrent trials share one engine, one color-BFS pool and
// one network.

import (
	"fmt"
	"reflect"
	"testing"
)

func TestTrialBudgetKeepsFacadeResults(t *testing.T) {
	const n = 300
	free := HighGirthGraph(n, 2*n, 5, 1) // no cycle of length ≤ 5
	planted := func(L int) *Graph {
		g, _, err := WithPlantedCycle(RandomGraph(n, 2*n, 3), L, 4)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	c4, c5 := planted(4), planted(5)

	trials := []Option{WithSeed(5), WithIterations(12)}
	quantumTrials := []Option{WithSeed(5), WithIterations(2), WithSimulationBudget(6)}
	detectors := []struct {
		name    string
		planted *Graph
		k       int
		base    []Option
		run     func(g *Graph, k int, opts ...Option) (any, error)
	}{
		{"Detect", c4, 2, trials, func(g *Graph, k int, o ...Option) (any, error) { return Detect(g, k, o...) }},
		{"DetectBounded", c4, 2, trials, func(g *Graph, k int, o ...Option) (any, error) { return DetectBounded(g, k, o...) }},
		{"DetectOdd", c5, 2, trials, func(g *Graph, k int, o ...Option) (any, error) { return DetectOdd(g, k, o...) }},
		{"DetectNamed", c4, 2, trials, func(g *Graph, k int, o ...Option) (any, error) { return DetectNamed(g, "classical", k, o...) }},
		{"DetectLocal", c4, 2, trials, func(g *Graph, k int, o ...Option) (any, error) { return DetectLocal(g, k, o...) }},
		{"ListCycles", c4, 2, trials, func(g *Graph, k int, o ...Option) (any, error) { return ListCycles(g, k, o...) }},
		{"DetectQuantum", c4, 2, quantumTrials, func(g *Graph, k int, o ...Option) (any, error) { return DetectQuantum(g, k, o...) }},
		{"DetectOddQuantum", c5, 2, quantumTrials, func(g *Graph, k int, o ...Option) (any, error) { return DetectOddQuantum(g, k, o...) }},
		{"DetectBoundedQuantum", c4, 2, quantumTrials, func(g *Graph, k int, o ...Option) (any, error) {
			return DetectBoundedQuantum(g, k, o...)
		}},
	}
	with := func(base []Option, extra ...Option) []Option {
		return append(append([]Option(nil), base...), extra...)
	}
	for _, d := range detectors {
		for _, in := range []struct {
			name string
			g    *Graph
		}{{"planted", d.planted}, {"free", free}} {
			t.Run(d.name+"/"+in.name, func(t *testing.T) {
				want, err := d.run(in.g, d.k, with(d.base, WithParallel(1), WithWorkers(1))...)
				if err != nil {
					t.Fatal(err)
				}
				configs := map[string][]Option{"default": d.base}
				for _, p := range []int{1, 2, -1} {
					for _, w := range []int{0, 1, 2} {
						configs[fmt.Sprintf("parallel=%d/workers=%d", p, w)] = with(d.base, WithParallel(p), WithWorkers(w))
					}
				}
				for name, opts := range configs {
					got, err := d.run(in.g, d.k, opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s diverges from the sequential serial run:\ngot  %+v\nwant %+v", name, got, want)
					}
				}
			})
		}
	}
}
