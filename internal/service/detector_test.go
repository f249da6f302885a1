package service

import (
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

// canonicalNames lists the detector table's canonical names in order.
func canonicalNames() []string {
	names := make([]string, len(detectors))
	for i, d := range detectors {
		names[i] = string(d.algo)
	}
	return names
}

// TestIgnoredKnobsShareOneEntry: a request knob a detector ignores must
// not split its cache entry. A second request differing from the first
// only in that knob is a pure hit on the first verdict, with no second
// computation.
func TestIgnoredKnobsShareOneEntry(t *testing.T) {
	g := graph.Gnm(40, 60, graph.NewRand(3))
	odd := Request{Algo: AlgoOdd, K: 2, Seed: 1, Iterations: 2}
	det := Request{Algo: AlgoDet, K: 2}
	cases := []struct {
		name  string
		first Request
		vary  func(*Request)
	}{
		{"odd/pipelined", odd, func(r *Request) { r.Pipelined = true }},
		{"odd/eps", odd, func(r *Request) { r.Eps = 0.25 }},
		{"det/pipelined", det, func(r *Request) { r.Pipelined = true }},
		{"det/eps", det, func(r *Request) { r.Eps = 0.25 }},
		{"det/seed", det, func(r *Request) { r.Seed = 9 }},
		{"det/iterations", det, func(r *Request) { r.Iterations = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{})
			first := tc.first
			first.Graph = g
			want, _, err := svc.Do(context.Background(), &first)
			if err != nil {
				t.Fatal(err)
			}
			second := first
			tc.vary(&second)
			got, src, err := svc.Do(context.Background(), &second)
			if err != nil {
				t.Fatal(err)
			}
			if src != SourceCache || got != want {
				t.Fatalf("second request served by %q (same verdict: %v), want a cache hit", src, got == want)
			}
			if c := svc.Stats().Computed; c != 1 {
				t.Fatalf("computed %d verdicts, want 1", c)
			}
		})
	}
}

// TestDetectorTableNames pins the table's name space: every canonical
// name and alias resolves to its own entry, no name is claimed twice,
// and only the table's names resolve.
func TestDetectorTableNames(t *testing.T) {
	seen := map[string]Algo{}
	for _, d := range detectors {
		for _, name := range append([]string{string(d.algo)}, d.aliases...) {
			if prev, dup := seen[name]; dup {
				t.Fatalf("name %q claimed by %s and %s", name, prev, d.algo)
			}
			seen[name] = d.algo
			if got, err := ParseAlgo(name); err != nil || got != d.algo {
				t.Fatalf("ParseAlgo(%q) = %q, %v; want %q", name, got, err, d.algo)
			}
		}
		if d.solo == nil {
			t.Fatalf("%s has no solo run", d.algo)
		}
	}
	if _, err := ParseAlgo("quantum"); err == nil {
		t.Fatal("a name outside the table resolved")
	}
}

// FuzzResolve decodes arbitrary bytes as a wire request and runs it
// through Resolve and validate against a service with one corpus graph.
// Neither may panic; every accepted request must carry a canonical table
// name; and an unknown algo's error must list exactly the table's
// canonical names.
func FuzzResolve(f *testing.F) {
	// The shapes of wire_test.go: hostile inline graphs, the
	// corpus/inline/neither arms, aliases and ignored knobs.
	for _, body := range []string{
		`{"algo":"det","k":2,"graph":{"n":-1}}`,
		`{"algo":"det","k":2,"graph":{"n":1073741824}}`,
		`{"algo":"det","k":2,"graph":{"n":1048576,"edges":[[0,1]]}}`,
		`{"algo":"det","k":2,"graph":{"n":4,"edges":[[-1,0]]}}`,
		`{"algo":"det","k":2,"graph":{"n":4,"edges":[[0,1073741824]]}}`,
		`{"algo":"det","k":2,"graph":{"n":3,"edges":[[0,1],[1,2],[2,0]]}}`,
		`{"algo":"even","k":2}`,
		`{"algo":"even","k":2,"corpus":"nope"}`,
		`{"algo":"even","k":2,"corpus":"g","graph":{"n":1}}`,
		`{"algo":"even","k":2,"corpus":"g"}`,
		`{"algo":"deterministic","k":2,"corpus":"g","seed":5,"iterations":3}`,
		`{"algo":"classical","k":2,"corpus":"g","pipelined":true,"eps":0.5}`,
		`{"algo":"odd","k":1,"corpus":"g","seed":3,"iterations":4,"pipelined":true,"eps":0.1}`,
		`{"algo":"bounded","k":0,"corpus":"g","deadline_ms":-5}`,
		`{"algo":"bogus","k":2,"corpus":"g"}`,
		`{"k":2,"corpus":"g","threshold":-1,"trace":true}`,
	} {
		f.Add([]byte(body))
	}
	svc := New(Config{})
	if err := svc.RegisterGraph("g", graph.Gnm(20, 30, graph.NewRand(1))); err != nil {
		f.Fatal(err)
	}
	names := canonicalNames()
	f.Fuzz(func(t *testing.T, body []byte) {
		var wr WireRequest
		if json.Unmarshal(body, &wr) != nil {
			return
		}
		req, err := svc.Resolve(&wr, 8)
		if err != nil {
			if _, perr := ParseAlgo(wr.Algo); perr != nil {
				msg := err.Error()
				i, j := strings.LastIndex(msg, "(want "), strings.LastIndex(msg, ")")
				if i < 0 || j < i {
					t.Fatalf("unknown-algo error %q lists no names", msg)
				}
				if listed := strings.Split(msg[i+len("(want "):j], "|"); !slices.Equal(listed, names) {
					t.Fatalf("unknown-algo error lists %q, want the table's %q", listed, names)
				}
			}
			return
		}
		if _, err := validate(req); err != nil {
			return
		}
		if !slices.Contains(names, string(req.Algo)) {
			t.Fatalf("accepted algo %q is not a canonical table name", req.Algo)
		}
	})
}
