package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// foldTrace folds trials into an order-sensitive transcript so any
// deviation from the sequential prefix semantics is visible.
func foldTrace(stopAt int) (fold func(i int, v int) bool, trace *[]string) {
	t := &[]string{}
	return func(i, v int) bool {
		*t = append(*t, fmt.Sprintf("%d=%d", i, v))
		return stopAt >= 0 && i >= stopAt
	}, t
}

func TestSequentialSemanticsForEveryWorkerCount(t *testing.T) {
	const n = 200
	trial := func(i int) (int, error) {
		// Uneven, scheduling-dependent timing: later trials often finish
		// before earlier ones under parallel execution.
		if i%7 == 0 {
			time.Sleep(time.Millisecond)
		}
		return i * i, nil
	}
	for _, stopAt := range []int{-1, 0, 37, n - 1} {
		foldSeq, traceSeq := foldTrace(stopAt)
		resSeq, err := Run(TrialRunner{Workers: 1}, n, trial, foldSeq)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16, -1} {
			fold, trace := foldTrace(stopAt)
			res, err := Run(TrialRunner{Workers: workers}, n, trial, fold)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stopped != resSeq.Stopped || res.Folded != resSeq.Folded {
				t.Fatalf("stopAt=%d workers=%d: got (stopped=%d folded=%d), sequential (%d, %d)",
					stopAt, workers, res.Stopped, res.Folded, resSeq.Stopped, resSeq.Folded)
			}
			if len(*trace) != len(*traceSeq) {
				t.Fatalf("stopAt=%d workers=%d: trace length %d vs %d", stopAt, workers, len(*trace), len(*traceSeq))
			}
			for k := range *trace {
				if (*trace)[k] != (*traceSeq)[k] {
					t.Fatalf("stopAt=%d workers=%d: trace[%d] = %q, want %q",
						stopAt, workers, k, (*trace)[k], (*traceSeq)[k])
				}
			}
			if res.Executed < res.Folded {
				t.Fatalf("Executed %d < Folded %d", res.Executed, res.Folded)
			}
		}
	}
}

func TestErrorAbortsAtDeterministicPrefix(t *testing.T) {
	errBoom := errors.New("boom")
	const errAt = 13
	trial := func(i int) (int, error) {
		if i == errAt {
			return 0, errBoom
		}
		if i < errAt && i%3 == 0 {
			time.Sleep(time.Millisecond) // earlier trials finish later
		}
		return i, nil
	}
	for _, workers := range []int{1, 4, 16} {
		folded := 0
		res, err := Run(TrialRunner{Workers: workers}, 100, trial, func(i, v int) bool {
			if i >= errAt {
				t.Fatalf("workers=%d: folded trial %d past the error index", workers, i)
			}
			folded++
			return false
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if folded != errAt || res.Folded != errAt {
			t.Fatalf("workers=%d: folded %d (res %d), want %d", workers, folded, res.Folded, errAt)
		}
	}
}

func TestOvershootIsBoundedAndDiscarded(t *testing.T) {
	var started atomic.Int64
	const stopAt = 5
	trial := func(i int) (int, error) {
		started.Add(1)
		return i, nil
	}
	res, err := Run(TrialRunner{Workers: 4}, 10_000, trial, func(i, v int) bool { return i == stopAt })
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != stopAt || res.Folded != stopAt+1 {
		t.Fatalf("res = %+v", res)
	}
	// Lookahead is bounded by the ring (4 workers × ring factor), so a hit
	// at index 5 must not have launched anywhere near the full batch.
	if n := started.Load(); n > 64 {
		t.Fatalf("started %d trials for a hit at index %d", n, stopAt)
	}
	if int(started.Load()) != res.Executed {
		t.Fatalf("Executed = %d, started = %d", res.Executed, started.Load())
	}
}

func TestZeroAndSmallBatches(t *testing.T) {
	res, err := Run(TrialRunner{Workers: 8}, 0, func(i int) (int, error) { return 0, nil }, nil)
	if err != nil || res.Folded != 0 || res.Stopped != -1 {
		t.Fatalf("n=0: %+v err=%v", res, err)
	}
	res, err = Run(TrialRunner{Workers: 8}, 1, func(i int) (int, error) { return 42, nil },
		func(i, v int) bool { return true })
	if err != nil || res.Folded != 1 || res.Stopped != 0 {
		t.Fatalf("n=1: %+v err=%v", res, err)
	}
	// nil fold runs everything.
	res, err = Run(TrialRunner{Workers: 3}, 50, func(i int) (int, error) { return i, nil }, nil)
	if err != nil || res.Folded != 50 || res.Stopped != -1 {
		t.Fatalf("nil fold: %+v err=%v", res, err)
	}
}

// TestBudget pins the CPU-budget rule: auto engine workers drop to one
// exactly when more than one trial is in flight, and the runner always
// carries the trial parallelism through unchanged.
func TestBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct {
		name                      string
		procs                     int
		parallel, workers, trials int
		want                      int
	}{
		{"parallel trials serialize auto engines", 4, 2, 0, 8, 1},
		{"all cores serialize auto engines", 4, -1, 0, 8, 1},
		{"negative workers are auto", 4, 3, -1, 8, 1},
		{"one trial keeps auto engines", 4, 2, 0, 1, 0},
		{"one trial, all cores", 4, -1, 0, 1, 0},
		{"no trials keep auto engines", 4, -1, 0, 0, 0},
		{"parallel 0 is sequential", 4, 0, 0, 8, 0},
		{"parallel 1 is sequential", 4, 1, 0, 8, 0},
		{"sequential keeps negative workers", 4, 1, -1, 8, -1},
		{"explicit workers hold under parallel trials", 4, 2, 3, 8, 3},
		{"explicit serial workers", 4, -1, 1, 8, 1},
		{"explicit workers, sequential", 4, 1, 2, 8, 2},
		{"one CPU: all cores is one trial", 1, -1, 0, 8, 0},
		{"one CPU: explicit parallel still counts", 1, 2, 0, 8, 1},
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		r, w := Budget(c.parallel, c.workers, c.trials)
		if r.Workers != c.parallel || w != c.want {
			t.Errorf("%s: Budget(%d, %d, %d) at GOMAXPROCS=%d = (runner %d, workers %d), want (runner %d, workers %d)",
				c.name, c.parallel, c.workers, c.trials, c.procs, r.Workers, w, c.parallel, c.want)
		}
	}
}

func TestTagDeterministicAndSpread(t *testing.T) {
	if Tag(1, 2, 3) != Tag(1, 2, 3) {
		t.Fatal("Tag not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[Tag(7, i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("Tag collisions: %d distinct of 1000", len(seen))
	}
	if Tag(0, 1) == Tag(1, 0) {
		t.Fatal("Tag ignores part order")
	}
}

func BenchmarkRunnerOverheadSequential(b *testing.B) {
	for b.Loop() {
		_, _ = Run(TrialRunner{Workers: 1}, 64, func(i int) (int, error) { return i, nil }, nil)
	}
}

func BenchmarkRunnerOverheadParallel(b *testing.B) {
	for b.Loop() {
		_, _ = Run(TrialRunner{Workers: -1}, 64, func(i int) (int, error) { return i, nil }, nil)
	}
}
