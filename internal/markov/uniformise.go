package markov

import (
	"errors"

	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// BiasFunc returns the instantaneous gate bias V_gs at time t.
type BiasFunc func(t float64) float64

// ErrBadInterval is returned when tf <= t0.
var ErrBadInterval = errors.New("markov: simulation interval is empty")

// Uniformise simulates one trap over [t0, tf] under the bias waveform
// with the compiled kernel (BatchState.Run) as a single lane. Unlike
// Run, the lane draws from r itself rather than from a split child, so
// the path is bit-identical to Reference(ctx, tr, bias.Eval, t0, tf, 0,
// r, nil) on the same stream. The kernel pre-draws candidates in
// chunks, so r's state afterwards is unspecified: callers must not draw
// from r again.
func Uniformise(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, tf float64, r *rng.Stream) (*Path, error) {
	var bs BatchState
	paths, _, err := bs.run(ctx, []trap.Trap{tr}, bias, t0, tf, 0, r, false)
	if err != nil {
		return nil, err
	}
	return paths[0], nil
}

// Reference is Algorithm 1 of the paper written out literally: exact
// non-stationary simulation of a single trap over [t0, tf] under the
// time-varying gate bias vgs, sampled under the importance-sampling
// energy tilt tiltEV (0 samples the nominal law). It is the oracle the
// compiled kernel is checked against and is not a production path.
//
// Because λ_c(t)+λ_e(t) is bias-independent (Eq 1), λ* := λ_c(t₀)+λ_e(t₀)
// is an exact majorant at all times: candidate events are generated as
// a Poisson process of rate λ* and each is accepted ("the state flips")
// with probability λ_next(t)/λ* where λ_next is the propensity of
// leaving the current state at the candidate time. Accepted and
// rejected candidates together exactly reproduce the inhomogeneous
// chain's law. The tilt only re-splits λ* between the two propensities
// (see tilt.go), so the returned log-likelihood ratio
// log(dP_nominal/dP_tilted) accumulates one thinning factor per
// candidate; at tiltEV == 0 every factor is exactly 1 and the log-LR
// exactly 0.
//
// rec, when non-nil, is reset and filled with the candidate history.
//
//lint:hot
func Reference(ctx trap.Context, tr trap.Trap, vgs BiasFunc, t0, tf, tiltEV float64, r *rng.Stream, rec *ThinningRecord) (*Path, float64, error) {
	if tf <= t0 {
		return nil, 0, ErrBadInterval
	}
	if err := ctx.Validate(); err != nil {
		return nil, 0, err
	}
	nom := ctx.Compile(tr)
	til := nom.Tilted(tiltEV)
	lambdaStar := nom.Sum // == λ_c(t)+λ_e(t) for all t, Eq (1)
	if rec != nil {
		rec.reset()
	}
	p := NewPath(t0, tf, tr.InitFilled)
	filled := tr.InitFilled
	t := t0
	logLR := 0.0
	var candidates, accepts int64 // published once after the loop
	for {
		t += r.Exp(lambdaStar)
		if t > tf {
			break
		}
		candidates++
		pN, qT := thinProbs(nom, til, vgs(t), filled)
		accept := r.Float64() < qT
		if accept {
			p.Transition(t)
			filled = !filled
			accepts++
		}
		logLR += logLRFactor(pN, qT, accept)
		if rec != nil {
			//lint:ignore hotalloc reset() keeps the record's capacity, so appends only grow on the first run (or a candidate-count high-water mark), not steady-state
			rec.Times = append(rec.Times, t)
			//lint:ignore hotalloc grows in lockstep with Times under the same retained capacity; reuse makes it allocation-free
			rec.Accepts = append(rec.Accepts, accept)
		}
	}
	publishPath(lambdaStar, candidates, accepts)
	return p, logLR, nil
}

// ExpectedCandidates returns the expected number of candidate events
// Algorithm 1 draws for the given trap and horizon — the cost model
// used by the efficiency benchmarks.
func ExpectedCandidates(ctx trap.Context, tr trap.Trap, t0, tf float64) float64 {
	return ctx.RateSum(tr) * (tf - t0)
}
