package main

import (
	"math/rand/v2"
	"slices"

	evencycle "repro"
	"repro/internal/graph"
)

// inst is one harness-generated graph: the edge list the program under
// test receives, plus what its construction proves about its cycles.
// The generators live here, not in the program, so a change to the
// program's own generators can never change the benchmark's inputs.
type inst struct {
	name  string
	n     int
	edges [][2]graph.NodeID
	// planted is the length of a cycle planted at construction (0 = none).
	planted int
	// girth is a lower bound on the girth guaranteed by construction:
	// no cycle shorter than girth exists (0 = no guarantee).
	girth int

	g      *evencycle.Graph // built lazily by graphOf
	cycles map[int]bool     // memoized hasCycle answers
}

// graphOf builds (once) the harness's own CSR of the instance, used by
// the correctness gate and the exact oracle — never timed.
func (in *inst) graphOf() *evencycle.Graph {
	if in.g == nil {
		in.g = evencycle.NewGraph(in.n, in.edges)
	}
	return in.g
}

// hasCycle reports whether the instance contains a simple cycle of
// length L: from construction when it proves the answer, else from the
// exact oracle graph.HasCycleLen.
func (in *inst) hasCycle(L int) bool {
	switch {
	case in.planted == L:
		return true
	case L < in.girth:
		return false
	}
	if has, ok := in.cycles[L]; ok {
		return has
	}
	if in.cycles == nil {
		in.cycles = map[int]bool{}
	}
	in.cycles[L] = graph.HasCycleLen(in.graphOf(), L)
	return in.cycles[L]
}

// hasCycleUpTo reports whether the instance has any cycle of length in
// [3, L] (the bounded detector's family F_L).
func (in *inst) hasCycleUpTo(L int) bool {
	if in.planted >= 3 && in.planted <= L {
		return true
	}
	for l := 3; l <= L; l++ {
		if in.hasCycle(l) {
			return true
		}
	}
	return false
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9e3779b97f4a7c15))
}

// edgeSet accumulates a simple undirected edge list.
type edgeSet struct {
	n     int
	seen  map[[2]graph.NodeID]bool
	edges [][2]graph.NodeID
}

func newEdgeSet(n int) *edgeSet {
	return &edgeSet{n: n, seen: make(map[[2]graph.NodeID]bool)}
}

func (s *edgeSet) add(u, v graph.NodeID) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	e := [2]graph.NodeID{u, v}
	if s.seen[e] {
		return false
	}
	s.seen[e] = true
	s.edges = append(s.edges, e)
	return true
}

func (s *edgeSet) inst(name string) *inst {
	return &inst{name: name, n: s.n, edges: slices.Clone(s.edges)}
}

// gnm is a uniform random simple graph with n vertices and m edges.
func gnm(rng *rand.Rand, name string, n, m int) *inst {
	s := newEdgeSet(n)
	for len(s.edges) < m {
		s.add(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	return s.inst(name)
}

// highGirth inserts random edges only between vertices at distance
// ≥ girth-1, so every cycle it creates has length ≥ girth.
func highGirth(rng *rand.Rand, name string, n, m, girth int) *inst {
	s := newEdgeSet(n)
	adj := make([][]graph.NodeID, n)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var touched, queue []graph.NodeID
	far := func(u, v graph.NodeID) bool {
		defer func() {
			for _, x := range touched {
				dist[x] = -1
			}
			touched = touched[:0]
		}()
		dist[u] = 0
		touched = append(touched, u)
		queue = append(queue[:0], u)
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			if dist[x] >= girth-2 {
				continue
			}
			for _, w := range adj[x] {
				if dist[w] < 0 {
					if w == v {
						return false
					}
					dist[w] = dist[x] + 1
					touched = append(touched, w)
					queue = append(queue, w)
				}
			}
		}
		return true
	}
	for tries := 0; len(s.edges) < m && tries < 50*m; tries++ {
		u, v := graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))
		if u == v || !far(u, v) {
			continue
		}
		if s.add(u, v) {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	in := s.inst(name)
	in.girth = girth
	return in
}

// plant adds a cycle through L distinct random vertices of in.
func plant(rng *rand.Rand, in *inst, L int) *inst {
	s := newEdgeSet(in.n)
	for _, e := range in.edges {
		s.add(e[0], e[1])
	}
	perm := rng.Perm(in.n)[:L]
	for i := range L {
		s.add(graph.NodeID(perm[i]), graph.NodeID(perm[(i+1)%L]))
	}
	out := s.inst(in.name)
	out.planted = L
	return out
}

// hubs raises the degree of h random vertices to about deg each, making
// the instance heavy (high-degree vertices outside G[U]).
func hubs(rng *rand.Rand, in *inst, h, deg int) *inst {
	s := newEdgeSet(in.n)
	for _, e := range in.edges {
		s.add(e[0], e[1])
	}
	for range h {
		hub := graph.NodeID(rng.IntN(in.n))
		for range deg {
			s.add(hub, graph.NodeID(rng.IntN(in.n)))
		}
	}
	out := s.inst(in.name)
	out.planted = in.planted
	return out
}

// projectivePlane is the point-line incidence graph of PG(2,q) for a
// prime q: 2(q²+q+1) vertices, (q+1)-regular, girth 6, so C4-free.
func projectivePlane(name string, q int) *inst {
	var pts [][3]int
	for x := range q {
		for y := range q {
			pts = append(pts, [3]int{x, y, 1})
		}
	}
	for x := range q {
		pts = append(pts, [3]int{x, 1, 0})
	}
	pts = append(pts, [3]int{1, 0, 0})
	N := len(pts)
	s := newEdgeSet(2 * N)
	for i, p := range pts {
		for j, l := range pts {
			if (p[0]*l[0]+p[1]*l[1]+p[2]*l[2])%q == 0 {
				s.add(graph.NodeID(i), graph.NodeID(N+j))
			}
		}
	}
	in := s.inst(name)
	in.girth = 6
	return in
}

// relabel applies a random vertex permutation: the same structure (and
// the same construction guarantees) under seed-dependent vertex IDs.
func relabel(rng *rand.Rand, in *inst) *inst {
	perm := rng.Perm(in.n)
	s := newEdgeSet(in.n)
	for _, e := range in.edges {
		s.add(graph.NodeID(perm[e[0]]), graph.NodeID(perm[e[1]]))
	}
	out := s.inst(in.name)
	out.planted, out.girth = in.planted, in.girth
	return out
}
