package service

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/deterministic"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/lowprob"
)

// detector is one servable algorithm: the single record the service, the
// batcher, the verdict cache, the facade and the CLIs read to learn what
// an Algo accepts and how to run it. Adding a detector is one entry in
// detectors plus its tests.
type detector struct {
	algo Algo
	// aliases are further wire names that resolve to algo.
	aliases []string
	// minK is the smallest half cycle length the detector accepts.
	minK int
	// randomized detectors draw a seed and take a trial budget; a NotFound
	// records the budget it exhausted, and a larger budget amplifies it.
	// The others are pure functions of (graph, k, τ): validate zeroes
	// their seed and budget, so every such request shares one entry.
	randomized bool
	// ignores lists the request knobs with no effect on the verdict;
	// validate zeroes them, so they drop out of the cache and compat keys.
	ignores knob
	// solo runs one request on its own engine sessions and fills resp's
	// verdict and cost fields.
	solo func(r *run, resp *Response) error
	// fused, when set, runs a batch of compatible requests as one engine
	// session on the disjoint union of their graphs, filling resps[i]
	// exactly as solo fills it for rs[i]. An error rejects the batch
	// before any engine work; the batcher then runs each item solo.
	fused func(rs []run, resps []*Response) error
	// recheck, when set, marks a detector whose cached verdicts are
	// carried to a mutated corpus graph (see warmChild): a Found carries
	// over verbatim, and a NotFound is re-detected on r's graph only
	// around the added edges. fallback reports that the recheck could
	// not be localized and a full run is needed instead.
	recheck func(r *run, added [][2]graph.NodeID, resp *Response) (fallback bool, err error)
}

// knob is a set of request parameters a detector may ignore.
type knob uint8

const (
	knobEps knob = 1 << iota
	knobPipelined
)

// detectors is the table of servable algorithms, in the order their
// names are listed to clients.
var detectors = [...]detector{
	{algo: AlgoEven, aliases: []string{"classical", ""}, minK: 2, randomized: true,
		solo: soloEven, fused: fusedEven},
	{algo: AlgoBounded, minK: 2, randomized: true,
		solo: soloBounded},
	{algo: AlgoOdd, minK: 1, randomized: true, ignores: knobEps | knobPipelined,
		solo: soloOdd},
	{algo: AlgoDet, aliases: []string{"deterministic"}, minK: 2, ignores: knobEps | knobPipelined,
		solo: soloDet, fused: fusedDet, recheck: recheckDet},
}

// algoNames is the client-facing list of canonical names, e.g. in
// ParseAlgo's error.
var algoNames = func() string {
	names := make([]string, len(detectors))
	for i, d := range detectors {
		names[i] = string(d.algo)
	}
	return strings.Join(names, "|")
}()

// lookup resolves a wire name or alias to its table entry.
func lookup(name string) (*detector, error) {
	for i := range detectors {
		if d := &detectors[i]; name == string(d.algo) || slices.Contains(d.aliases, name) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("service: unknown algo %q (want %s)", name, algoNames)
}

// ParseAlgo resolves the wire names (including aliases) to an Algo.
func ParseAlgo(s string) (Algo, error) {
	d, err := lookup(s)
	if err != nil {
		return "", err
	}
	return d.algo, nil
}

// Randomized reports whether a's requests carry a seed and a trial
// budget. A detector that is not randomized answers every request for
// the same (graph, k, τ) with byte-identical responses. False for names
// ParseAlgo rejects.
func (a Algo) Randomized() bool {
	d, err := lookup(string(a))
	return err == nil && d.randomized
}

// run is one detector invocation: the validated request, the seed and
// trial budget it actually runs with, and the engine knobs.
type run struct {
	req        *Request
	seed       uint64
	iterations int
	// cfg supplies the engine knobs Workers, Shards and Parallel.
	cfg     *Config
	cancel  *congest.CancelFlag
	observe func(rounds int, wall time.Duration)
}

// Run computes req once with its detector's solo run, outside the cache
// and the admission gate. Unlike Service.Do it applies no seed
// derivation and no validation: req.Seed is the run seed and
// req.Iterations the trial budget as given (0 keeps the detector's
// faithful count). Workers, Shards and Parallel come from cfg. The
// response's Fingerprint is left empty. This is the facade's direct
// Detect path.
func Run(req *Request, cfg Config) (*Response, error) {
	d, err := lookup(string(req.Algo))
	if err != nil {
		return nil, err
	}
	resp := &Response{Algo: d.algo, K: req.K}
	r := run{req: req, seed: req.Seed, iterations: req.Iterations, cfg: &cfg}
	if err := d.solo(&r, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

func (r *run) coreOptions() core.Options {
	return core.Options{
		Eps:           r.req.Eps,
		MaxIterations: r.iterations,
		Threshold:     r.req.Threshold,
		Seed:          r.seed,
		Workers:       r.cfg.Workers,
		Shards:        r.cfg.Shards,
		Parallel:      r.cfg.Parallel,
		Pipelined:     r.req.Pipelined,
		Cancel:        r.cancel,
		Observe:       r.observe,
	}
}

// detOptions ignores the seed: the protocol draws no randomness.
func (r *run) detOptions() deterministic.Options {
	return deterministic.Options{
		Threshold: r.req.Threshold,
		Workers:   r.cfg.Workers,
		Shards:    r.cfg.Shards,
		Cancel:    r.cancel,
		Observe:   r.observe,
	}
}

func soloEven(r *run, resp *Response) error {
	res, err := core.DetectEvenCycle(r.req.Graph, r.req.K, r.coreOptions())
	if err != nil {
		return err
	}
	fillEven(resp, res)
	return nil
}

// fusedEven ignores the options' seed, budget and parallelism: each
// component runs with its own seed and budget, sequentially.
func fusedEven(rs []run, resps []*Response) error {
	items := make([]core.FusedItem, len(rs))
	for i, r := range rs {
		items[i] = core.FusedItem{Graph: r.req.Graph, Seed: r.seed, Iterations: r.iterations}
	}
	results, err := core.DetectEvenCycleFused(items, rs[0].req.K, rs[0].coreOptions())
	if err != nil {
		return err
	}
	for i, res := range results {
		fillEven(resps[i], res)
	}
	return nil
}

func fillEven(resp *Response, res *core.Result) {
	resp.Found = res.Found
	resp.Witness = res.Witness
	if res.Found {
		resp.FoundLen = 2 * resp.K
	}
	resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
	resp.MaxCongestion, resp.Overflowed = res.MaxCongestion, res.Overflowed
	resp.Iterations = res.IterationsRun
}

func soloBounded(r *run, resp *Response) error {
	res, err := core.DetectBoundedCycle(r.req.Graph, r.req.K, r.coreOptions())
	if err != nil {
		return err
	}
	resp.Found = res.Found
	resp.Witness = res.Witness
	resp.FoundLen = res.FoundLen
	resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
	resp.MaxCongestion, resp.Overflowed = res.MaxCongestion, res.Overflowed
	resp.Iterations = res.IterationsRun
	return nil
}

func soloOdd(r *run, resp *Response) error {
	res, err := lowprob.DetectOdd(r.req.Graph, r.req.K, lowprob.OddOptions{
		MaxIterations: r.iterations,
		Threshold:     r.req.Threshold,
		Seed:          r.seed,
		Workers:       r.cfg.Workers,
		Shards:        r.cfg.Shards,
		Parallel:      r.cfg.Parallel,
		SeedProb:      1, // classical mode: every color-0 node participates
		Cancel:        r.cancel,
		Observe:       r.observe,
	})
	if err != nil {
		return err
	}
	resp.Found = res.Found
	resp.Witness = res.Witness
	if res.Found {
		resp.FoundLen = 2*r.req.K + 1
	}
	resp.Rounds, resp.Messages = res.Rounds, res.Messages
	resp.Iterations = res.IterationsRun
	return nil
}

func soloDet(r *run, resp *Response) error {
	res, err := deterministic.Detect(r.req.Graph, r.req.K, r.detOptions())
	if err != nil {
		return err
	}
	fillDet(resp, res)
	return nil
}

func fusedDet(rs []run, resps []*Response) error {
	gs := make([]*graph.Graph, len(rs))
	for i, r := range rs {
		gs[i] = r.req.Graph
	}
	results, err := deterministic.DetectMulti(gs, rs[0].req.K, rs[0].detOptions())
	if err != nil {
		return err
	}
	for i, res := range results {
		fillDet(resps[i], res)
	}
	return nil
}

// recheckDet runs incr.Recheck, which detects on the radius-2k ball
// around the added edges.
func recheckDet(r *run, added [][2]graph.NodeID, resp *Response) (bool, error) {
	rc, err := incr.Recheck(r.req.Graph, added, r.req.K, incr.Options{
		Threshold: r.req.Threshold,
		Workers:   r.cfg.Workers,
		Shards:    r.cfg.Shards,
	})
	if err != nil {
		return false, err
	}
	if rc.Fallback {
		return true, nil
	}
	fillDet(resp, rc.Res)
	return false, nil
}

func fillDet(resp *Response, res *deterministic.Result) {
	resp.Found = res.Found
	resp.Witness = res.Witness
	if res.Found {
		resp.FoundLen = 2 * resp.K
	}
	resp.Rounds, resp.Messages, resp.Bits = res.Rounds, res.Messages, res.Bits
	resp.MaxCongestion, resp.Overflowed = res.MaxCongestion, res.Overflowed
}
