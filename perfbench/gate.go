package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	evencycle "repro"
	"repro/internal/graph"
)

// violation is a correctness failure: the run fails, it is never
// counted as a metric.
type violation struct{ msg string }

func (v *violation) Error() string { return "correctness violation: " + v.msg }

func violatef(format string, args ...any) error {
	return &violation{fmt.Sprintf(format, args...)}
}

// verdict is the part of a detection response the gate reads.
type verdict struct {
	Algo        string           `json:"algo"`
	K           int              `json:"k"`
	Fingerprint string           `json:"fingerprint"`
	Found       bool             `json:"found"`
	Witness     []graph.NodeID   `json:"witness"`
	FoundLen    int              `json:"found_len"`
	Rounds      int              `json:"rounds"`
	Messages    int64            `json:"messages"`
	TraceNS     map[string]int64 `json:"trace_ns"`
}

// queryKey names one distinct (graph, algo, k) query.
type queryKey struct {
	graph string
	algo  string
	k     int
}

// gate checks every response the benchmark receives:
//   - a Found witness is a simple cycle of the right length in the graph
//     the harness sent (evencycle.VerifyCycle);
//   - a graph free of the target cycle — by construction or by the exact
//     oracle — is never reported Found;
//   - det bodies are byte-identical per (graph, k) across serves, with
//     trace_ns stripped.
//
// It also keeps the first verdict of each distinct query for miss_rate.
type gate struct {
	mu       sync.Mutex
	insts    map[string]*inst
	detBody  map[queryKey][]byte   // first det body per (graph, k), trace stripped
	lastBody map[queryKey][]byte   // last body verified per query
	lastVerd map[queryKey]*verdict // its parsed verdict
	first    map[queryKey]bool     // first verdict (found) per distinct query
	order    []queryKey
}

func newGate() *gate {
	return &gate{
		insts:    map[string]*inst{},
		detBody:  map[queryKey][]byte{},
		lastBody: map[queryKey][]byte{},
		lastVerd: map[queryKey]*verdict{},
		first:    map[queryKey]bool{},
	}
}

func (gt *gate) register(in *inst) {
	gt.mu.Lock()
	gt.insts[in.name] = in
	gt.mu.Unlock()
}

// stripTrace removes the trace_ns object a traced response wraps around
// the verdict, leaving the bytes an untraced serve returns.
func stripTrace(body []byte) []byte {
	i := bytes.LastIndex(body, []byte(`,"trace_ns":`))
	if i < 0 {
		return body
	}
	out := make([]byte, 0, i+2)
	out = append(out, body[:i]...)
	return append(out, "}\n"...)
}

// targetLen is the cycle length the algo detects for half-length k
// (bounded accepts any length in [3, 2k]).
func targetLen(algo string, k int) int {
	if algo == "odd" {
		return 2*k + 1
	}
	return 2 * k
}

// check verifies one 2xx detection body for the named graph.
func (gt *gate) check(graphName, algo string, k int, body []byte) (*verdict, error) {
	key := queryKey{graphName, algo, k}
	clean := stripTrace(body)
	gt.mu.Lock()
	defer gt.mu.Unlock()
	in := gt.insts[graphName]
	if in == nil {
		return nil, fmt.Errorf("gate: unknown graph %q", graphName)
	}
	prevDet, haveDet := gt.detBody[key]
	if algo == "det" && haveDet && !bytes.Equal(prevDet, clean) {
		return nil, violatef("det body for (%s, k=%d) differs across serves:\n  first %s  now   %s", graphName, k, prevDet, clean)
	}
	if v := gt.lastVerd[key]; v != nil && bytes.Equal(gt.lastBody[key], body) {
		return v, nil
	}
	v := &verdict{}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, violatef("undecodable verdict for %s/%s/k=%d: %v: %s", graphName, algo, k, err, body)
	}
	if v.Algo != algo || v.K != k {
		return nil, violatef("verdict for %s answers algo=%s k=%d, asked algo=%s k=%d", graphName, v.Algo, v.K, algo, k)
	}
	if err := gt.verifyLocked(in, algo, k, v); err != nil {
		return nil, err
	}
	gt.lastBody[key], gt.lastVerd[key] = body, v
	if algo == "det" && !haveDet {
		gt.detBody[key] = clean
	}
	if _, seen := gt.first[key]; !seen {
		gt.first[key] = v.Found
		gt.order = append(gt.order, key)
	}
	return v, nil
}

// verifyLocked applies the witness and one-sidedness checks.
func (gt *gate) verifyLocked(in *inst, algo string, k int, v *verdict) error {
	L := targetLen(algo, k)
	if !v.Found {
		return nil
	}
	if algo == "bounded" {
		if v.FoundLen < 3 || v.FoundLen > L || len(v.Witness) != v.FoundLen {
			return violatef("%s/bounded/k=%d: witness of %d vertices, found_len %d", in.name, k, len(v.Witness), v.FoundLen)
		}
	} else if len(v.Witness) != L {
		return violatef("%s/%s/k=%d: witness of %d vertices, want %d", in.name, algo, k, len(v.Witness), L)
	}
	// Found on a graph free of the target cycle: its construction says
	// so, or else no witness of that length can pass VerifyCycle. A
	// verified witness is itself the proof that the cycle exists, so the
	// gate never runs the exact oracle while load is running.
	if len(v.Witness) < in.girth {
		return violatef("%s/%s/k=%d: Found a %d-cycle on a graph of girth >= %d", in.name, algo, k, len(v.Witness), in.girth)
	}
	if err := evencycle.VerifyCycle(in.graphOf(), v.Witness); err != nil {
		return violatef("%s/%s/k=%d: bad witness %v: %v", in.name, algo, k, v.Witness, err)
	}
	return nil
}

// missRate is NotFound verdicts over distinct queries whose graph holds
// the target cycle (oracle calls here are untimed), and that base count.
func (gt *gate) missRate() (rate float64, withCycle int) {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	misses := 0
	for _, key := range gt.order {
		in := gt.insts[key.graph]
		L := targetLen(key.algo, key.k)
		has := in.hasCycle(L)
		if key.algo == "bounded" {
			has = in.hasCycleUpTo(L)
		}
		if !has {
			continue
		}
		withCycle++
		if !gt.first[key] {
			misses++
		}
	}
	if withCycle == 0 {
		return 0, 0
	}
	return float64(misses) / float64(withCycle), withCycle
}
