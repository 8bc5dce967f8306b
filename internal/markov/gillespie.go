package markov

import (
	"samurai/internal/rng"
	"samurai/internal/trap"
)

// Gillespie performs the classical stochastic simulation algorithm
// (paper ref [9]) on a single trap under *constant* bias vgs. For a
// two-state chain with constant rates this is exact: the sojourn in the
// current state is exponential with the state's exit rate, and every
// event is a flip.
//
// Under time-varying bias Gillespie is *not* exact (it would freeze the
// propensity over each sojourn); that is precisely the deficiency
// Markov uniformisation fixes. Gillespie is kept as the stationary
// cross-check used in the Fig 7 validation experiments.
func Gillespie(ctx trap.Context, tr trap.Trap, vgs, t0, tf float64, r *rng.Stream) (*Path, error) {
	if tf <= t0 {
		return nil, ErrBadInterval
	}
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	lc, le := ctx.Rates(tr, vgs)
	p := NewPath(t0, tf, tr.InitFilled)
	filled := tr.InitFilled
	t := t0
	for {
		exit := lc
		if filled {
			exit = le
		}
		t += r.Exp(exit)
		if t > tf {
			break
		}
		p.Transition(t)
		filled = !filled
	}
	return p, nil
}

// DiscretisedBernoulli is the naive fixed-step simulator used as the
// accuracy/efficiency baseline (EXP-T1): at every step of width dt the
// trap flips with probability λ_exit(t)·dt. Its bias is O(dt) — it
// systematically under-counts flips because it allows at most one per
// step — and its cost is (tf−t0)/dt regardless of trap speed, whereas
// uniformisation's cost adapts to λ*.
func DiscretisedBernoulli(ctx trap.Context, tr trap.Trap, vgs BiasFunc, t0, tf, dt float64, r *rng.Stream) (*Path, error) {
	if tf <= t0 {
		return nil, ErrBadInterval
	}
	if dt <= 0 {
		return nil, ErrBadInterval
	}
	p := NewPath(t0, tf, tr.InitFilled)
	filled := tr.InitFilled
	for t := t0; t < tf; t += dt {
		lc, le := ctx.Rates(tr, vgs(t))
		exit := lc
		if filled {
			exit = le
		}
		prob := exit * dt
		if prob > 1 {
			prob = 1
		}
		if r.Float64() < prob {
			// Attribute the flip to the middle of the step.
			ft := t + dt/2
			if ft > tf {
				ft = tf
			}
			p.Transition(ft)
			filled = !filled
		}
	}
	return p, nil
}

// OccupancyODE integrates the exact occupancy probability
//
//	P₁'(t) = λ_c(t) − (λ_c(t)+λ_e(t))·P₁(t)
//
// with RK4 at the given step, returning P₁ sampled at n+1 uniform
// instants over [t0, tf] (including both endpoints). It is the
// deterministic oracle against which ensemble averages of the
// stochastic simulators are tested.
func OccupancyODE(ctx trap.Context, tr trap.Trap, vgs BiasFunc, t0, tf float64, p0 float64, n int) (ts, ps []float64) {
	if n < 1 {
		n = 1
	}
	ts = make([]float64, n+1)
	ps = make([]float64, n+1)
	h := (tf - t0) / float64(n)
	deriv := func(t, p float64) float64 {
		lc, le := ctx.Rates(tr, vgs(t))
		return lc - (lc+le)*p
	}
	p := p0
	for i := 0; i <= n; i++ {
		t := t0 + float64(i)*h
		ts[i] = t
		ps[i] = p
		if i == n {
			break
		}
		k1 := deriv(t, p)
		k2 := deriv(t+h/2, p+h/2*k1)
		k3 := deriv(t+h/2, p+h/2*k2)
		k4 := deriv(t+h, p+h*k3)
		p += h / 6 * (k1 + 2*k2 + 2*k3 + k4)
	}
	return
}
