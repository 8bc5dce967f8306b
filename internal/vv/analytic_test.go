package vv

import (
	"math"
	"testing"

	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// activeTrap is the β≈1 fixture shared with the markov package's tests.
func activeTrap(ctx trap.Context) trap.Trap {
	return trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
}

func mustMaster(t *testing.T, ctx trap.Context, tr trap.Trap, bias *waveform.PWL) *Master {
	t.Helper()
	m, err := NewMaster(ctx, tr, bias)
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	return m
}

func TestNewMasterValidates(t *testing.T) {
	ctx := vvCtx()
	if _, err := NewMaster(ctx, activeTrap(ctx), nil); err == nil {
		t.Fatalf("nil bias accepted")
	}
	var bad trap.Context
	if _, err := NewMaster(bad, trap.Trap{}, waveform.Constant(1)); err == nil {
		t.Fatalf("invalid context accepted")
	}
}

// TestMasterConstantBias pins the propagator against the textbook
// closed forms p(t) = p∞ + (p0−p∞)e^(−λs·t) under constant bias.
func TestMasterConstantBias(t *testing.T) {
	ctx := vvCtx()
	tr := activeTrap(ctx)
	m := mustMaster(t, ctx, tr, waveform.Constant(1.2))
	lc, le := ctx.Rates(tr, 1.2)
	ls := lc + le
	pInf := lc / ls
	approx(t, "RateSum", m.RateSum(), ls, 1e-9*ls)
	approx(t, "StationaryOccupancy", m.StationaryOccupancy(1.2), pInf, 1e-12)

	for _, h := range []float64{0.01 / ls, 1 / ls, 10 / ls, 300 / ls} {
		want := pInf * -math.Expm1(-ls*h) // p0 = 0
		approx(t, "Occupancy", m.Occupancy(0, h, 0), want, 1e-12)
		// Exact ∫p and E[N] closed forms.
		occInt := pInf*h - pInf*(-math.Expm1(-ls*h))/ls
		approx(t, "MeanOccupancy", m.MeanOccupancy(0, h, 0), occInt/h, 1e-12)
		wantN := lc*h + (le-lc)*occInt
		approx(t, "ExpectedTransitions", m.ExpectedTransitions(0, h, 0), wantN, 1e-9*wantN+1e-15)
	}
	// Propagation is consistent under splitting the interval.
	h := 5 / ls
	pMid := m.Occupancy(0, h/2, 0)
	approx(t, "split consistency", m.Occupancy(h/2, h, pMid), m.Occupancy(0, h, 0), 1e-14)
}

// TestMasterMatchesODEOracle checks the propagator against the
// markov package's RK4 occupancy oracle on genuinely time-varying
// biases (ramp, step, pulse train), where no closed form exists.
func TestMasterMatchesODEOracle(t *testing.T) {
	ctx := vvCtx()
	tr := activeTrap(ctx)
	ls := ctx.RateSum(tr)
	horizon := 60 / ls

	ramp, err := waveform.New([]float64{0, horizon}, []float64{0.95, 1.45})
	if err != nil {
		t.Fatalf("ramp: %v", err)
	}
	step, err := waveform.Step([]float64{0, horizon / 2}, []float64{0.95, 1.45}, horizon/1000)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	var pulseT, pulseV []float64
	for i := 0; i < 4; i++ {
		u := float64(i) * horizon / 4
		pulseT = append(pulseT, u, u+horizon/10)
		pulseV = append(pulseV, 1.45, 0.95)
	}
	pulses, err := waveform.Step(pulseT, pulseV, horizon/500)
	if err != nil {
		t.Fatalf("pulses: %v", err)
	}

	for _, tc := range []struct {
		name string
		bias *waveform.PWL
	}{
		{"ramp", ramp},
		{"step", step},
		{"pulses", pulses},
	} {
		m := mustMaster(t, ctx, tr, tc.bias)
		rates := func(u float64) (float64, float64) {
			return ctx.Rates(tr, tc.bias.Eval(u))
		}
		const oracleSteps = 400000
		_, odeP := markov.OccupancyODEFunc(rates, 0, horizon, 0, oracleSteps)
		const checks = 16
		_, ps := m.OccupancyGrid(0, horizon, 0, checks)
		for i := 0; i <= checks; i++ {
			ode := odeP[i*oracleSteps/checks]
			if math.Abs(ps[i]-ode) > 1e-7 {
				t.Errorf("%s: p at grid %d: propagator %.12g vs oracle %.12g", tc.name, i, ps[i], ode)
			}
		}
	}
}

func TestFirstTransitionCDFConstantBias(t *testing.T) {
	ctx := vvCtx()
	tr := activeTrap(ctx)
	m := mustMaster(t, ctx, tr, waveform.Constant(1.2))
	lc, le := ctx.Rates(tr, 1.2)

	// Starting empty the first flip is the capture: Exp(λc).
	cdf := m.FirstTransitionCDF(0, false)
	ref := ExpCDF(lc)
	for _, u := range []float64{0.1 / lc, 1 / lc, 4 / lc} {
		approx(t, "first-flip CDF (empty)", cdf(u), ref(u), 1e-12)
	}
	// Starting filled it is the emission: Exp(λe).
	cdf = m.FirstTransitionCDF(0, true)
	ref = ExpCDF(le)
	approx(t, "first-flip CDF (filled)", cdf(1/le), ref(1/le), 1e-12)
	if got := cdf(-1); got > 0 {
		t.Errorf("CDF before start = %g, want 0", got)
	}

	// The conditional variant renormalises by F(t1) and saturates at 1.
	t1 := 2 / lc
	raw := m.FirstTransitionCDF(0, false)
	cond := m.ConditionalFirstTransitionCDF(0, t1, false)
	approx(t, "conditional mid", cond(t1/2), raw(t1/2)/raw(t1), 1e-12)
	approx(t, "conditional at horizon", cond(t1), 1, 0)
	approx(t, "IntegratedExitRate", m.IntegratedExitRate(0, t1, false), lc*t1, 1e-9*lc*t1)
}

// TestWindowedDwellCDFLimits checks the windowed dwell law reduces to
// the plain exponential when the window dwarfs the mean dwell, and that
// it is a valid, monotone CDF in the strongly censored regime.
func TestWindowedDwellCDFLimits(t *testing.T) {
	ctx := vvCtx()
	tr := activeTrap(ctx)
	m := mustMaster(t, ctx, tr, waveform.Constant(1.2))
	lc, le := ctx.Rates(tr, 1.2)

	// β≈1: the window is 300 mean dwells, censoring is negligible.
	T := 300 / (lc + le)
	cdf := m.WindowedDwellCDF(1.2, 0, T, 0, true)
	ref := ExpCDF(le)
	for _, u := range []float64{0.2 / le, 1 / le, 3 / le} {
		approx(t, "windowed≈exp", cdf(u), ref(u), 2e-2)
	}
	// Boundary behaviour.
	if cdf(0) > 0 || cdf(-1) > 0 {
		t.Errorf("CDF positive at d<=0")
	}
	approx(t, "CDF at window", cdf(T), 1, 0)
	prev := -1.0
	for i := 0; i <= 100; i++ {
		v := cdf(float64(i) / 100 * T)
		if v < prev-1e-12 || v < 0 || v > 1 {
			t.Fatalf("windowed dwell CDF not monotone in [0,1] at %d: %g after %g", i, v, prev)
		}
		prev = v
	}
}

// TestWindowedDwellCDFAgainstSimulation draws an ensemble with the
// production kernel in the strongly censored extreme-β regime and
// checks the pooled completed dwells against the windowed law — and
// confirms the plain exponential is measurably wrong there (the very
// discrepancy that motivated the windowed reference).
func TestWindowedDwellCDFAgainstSimulation(t *testing.T) {
	ctx := vvCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.12} // β ≈ 100
	ls := ctx.RateSum(tr)
	T := 300 / ls
	m := mustMaster(t, ctx, tr, waveform.Constant(1.2))
	lc, _ := ctx.Rates(tr, 1.2)

	r := rng.New(424242)
	var child rng.Stream
	var empty []float64
	nPaths := 1500
	if testing.Short() {
		nPaths = 400
	}
	for i := 0; i < nPaths; i++ {
		r.SplitInto(uint64(i), &child)
		p, err := markov.Uniformise(ctx, tr, waveform.Constant(1.2), 0, T, &child)
		if err != nil {
			t.Fatalf("Uniformise: %v", err)
		}
		_, e := p.DwellTimes()
		empty = append(empty, e...)
	}
	if len(empty) < 500 {
		t.Fatalf("too few empty dwells pooled: %d", len(empty))
	}
	dWindowed := KSStat(empty, m.WindowedDwellCDF(1.2, 0, T, 0, false))
	dExp := KSStat(empty, ExpCDF(lc))
	// The windowed law fits; the uncensored exponential does not.
	bound := 3 / math.Sqrt(float64(len(empty)))
	if dWindowed > bound {
		t.Errorf("windowed dwell KS D = %g exceeds %g (n=%d)", dWindowed, bound, len(empty))
	}
	if dExp < 2*dWindowed {
		t.Errorf("plain-exponential KS D = %g not clearly worse than windowed %g", dExp, dWindowed)
	}
}
