package quantum

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sched"
)

// Ledger itemizes the round accounting of one amplified execution.
type Ledger struct {
	// Diameter is the measured diameter (or its 2-approximation) of the
	// graph the amplification ran on.
	Diameter int
	// SetupRounds is the measured cost of one Setup execution: leader
	// election + one run of A + convergecast of the outcome.
	SetupRounds float64
	// GroverIterations is ceil(π/(4√ε)), the quadratically-reduced
	// repetition count of Lemma 8.
	GroverIterations float64
	// Repetitions is the log(1/δ) outer boosting factor.
	Repetitions float64
	// QuantumRounds is the total charged cost:
	// Repetitions · GroverIterations · (Diameter + SetupRounds).
	QuantumRounds float64
	// ClassicalSims is the number of Setup simulations actually executed
	// to realize the semantics.
	ClassicalSims int
	// SimRounds is the total number of simulated CONGEST rounds spent in
	// those executions (simulation cost, not part of the quantum charge).
	SimRounds int
}

// Attempt runs one full execution of the base algorithm A (index `i` for
// seed derivation) and reports whether it rejected, the witness it can
// produce, and the CONGEST rounds it consumed. Attempts must be
// independent (all randomness derived from `i`): with
// AmplifyOptions.Parallel > 1 they run concurrently on the shared trial
// scheduler.
type Attempt func(i int) (found bool, witness []graph.NodeID, rounds int, err error)

// AmplifyOptions parameterizes AmplifyMonteCarlo.
type AmplifyOptions struct {
	// Eps is the one-sided success probability ε of the base algorithm.
	Eps float64
	// Delta is the target one-sided error; 0 means 1/n² (the paper's
	// 1/poly(n)).
	Delta float64
	// N is the network size used for the default Delta.
	N int
	// ElectRounds and CastRounds are the measured costs of the leader
	// election and outcome convergecast around each run of A (they are
	// part of T_setup in Theorem 3's proof).
	ElectRounds, CastRounds int
	// Diameter is the measured diameter term D.
	Diameter int
	// MaxSims caps the classical simulations of Setup (the semantics
	// realization); 0 means the full classical budget ln(1/δ)/ε. Capping
	// can only cause missed detections (never false positives), and the
	// quantum charge is unaffected.
	MaxSims int
	// Parallel is the number of Setup simulations in flight (0/1
	// sequential, negative GOMAXPROCS). The ledger and the outcome are
	// deterministic regardless: they aggregate the sequential prefix of
	// attempts up to and including the first success.
	Parallel int
}

// AmplifyResult is the outcome of one amplified execution.
type AmplifyResult struct {
	Found   bool
	Witness []graph.NodeID
	Ledger  Ledger
}

// AmplifyMonteCarlo realizes Theorem 3: it boosts the one-sided success
// probability ε of the base algorithm to error δ, charging
// O(log(1/δ))·⌈π/(4√ε)⌉·(D + T_setup) rounds, where T_setup is measured
// from the executed attempts (election + A + convergecast).
func AmplifyMonteCarlo(attempt Attempt, opt AmplifyOptions) (*AmplifyResult, error) {
	sims, delta, err := opt.simulations()
	if err != nil {
		return nil, err
	}

	res := &AmplifyResult{}
	led := &res.Ledger
	led.Diameter = opt.Diameter
	led.GroverIterations = math.Ceil(math.Pi / (4 * math.Sqrt(opt.Eps)))
	led.Repetitions = math.Ceil(math.Log(1/delta) / math.Ln2)

	type attemptOutcome struct {
		found   bool
		witness []graph.NodeID
		rounds  int
	}
	maxAttemptRounds := 0
	runner := sched.TrialRunner{Workers: opt.Parallel}
	_, err = sched.Run(runner, sims,
		func(i int) (attemptOutcome, error) {
			found, witness, rounds, err := attempt(i)
			if err != nil {
				return attemptOutcome{}, fmt.Errorf("quantum: attempt %d: %w", i, err)
			}
			return attemptOutcome{found: found, witness: witness, rounds: rounds}, nil
		},
		func(i int, a attemptOutcome) bool {
			led.ClassicalSims++
			led.SimRounds += a.rounds
			if a.rounds > maxAttemptRounds {
				maxAttemptRounds = a.rounds
			}
			if a.found {
				res.Found = true
				res.Witness = a.witness
				return true
			}
			return false
		})
	if err != nil {
		return nil, err
	}
	led.SetupRounds = float64(maxAttemptRounds + opt.ElectRounds + opt.CastRounds)
	led.QuantumRounds = led.Repetitions * led.GroverIterations *
		(float64(opt.Diameter) + led.SetupRounds)
	return res, nil
}

// simulations validates ε and δ and returns the number of Setup
// simulations that realize the semantics classically — repeat Setup
// until success or budget exhaustion: ⌈ln(1/δ)/ε⌉, capped at MaxSims —
// and the resolved δ.
func (opt AmplifyOptions) simulations() (int, float64, error) {
	if opt.Eps <= 0 || opt.Eps > 1 {
		return 0, 0, fmt.Errorf("quantum: ε = %v outside (0,1]", opt.Eps)
	}
	delta := opt.Delta
	if delta == 0 {
		n := float64(opt.N)
		if n < 2 {
			n = 2
		}
		delta = 1 / (n * n)
	}
	if delta <= 0 || delta >= 1 {
		return 0, 0, fmt.Errorf("quantum: δ = %v outside (0,1)", delta)
	}
	budget := math.Ceil(math.Log(1/delta) / opt.Eps)
	sims := int(budget)
	if budget > float64(math.MaxInt32) {
		sims = math.MaxInt32
	}
	if opt.MaxSims > 0 && opt.MaxSims < sims {
		sims = opt.MaxSims
	}
	return sims, delta, nil
}

// ClassicalBoostRounds is the cost of achieving the same error δ by
// classical repetition: ln(1/δ)/ε executions of (D + T_setup). Used by the
// E8 experiment to exhibit the quadratic separation.
func ClassicalBoostRounds(eps, delta float64, diameter int, setupRounds float64) float64 {
	return math.Ceil(math.Log(1/delta)/eps) * (float64(diameter) + setupRounds)
}
