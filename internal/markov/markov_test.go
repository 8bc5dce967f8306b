package markov

import (
	"math"
	"testing"
	"testing/quick"

	"samurai/internal/num"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/units"
	"samurai/internal/waveform"
)

func testCtx() trap.Context { return trap.DefaultContext(1.9e-9, 1.2) }

// activeTrap returns a trap with β≈1 at the context reference bias and
// a convenient rate sum.
func activeTrap(ctx trap.Context) trap.Trap {
	return trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
}

func TestPathBasics(t *testing.T) {
	p := NewPath(0, 10, false)
	p.Transition(1)
	p.Transition(4)
	if p.Transitions() != 2 {
		t.Fatalf("transitions = %d", p.Transitions())
	}
	if p.StateAt(0.5) || !p.StateAt(2) || p.StateAt(7) {
		t.Fatal("StateAt wrong")
	}
	if p.StateAt(1) != true {
		t.Fatal("StateAt at event time must reflect the new state")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// filled on [1,4) of [0,10] → fraction 0.3
	if f := p.FilledFraction(); math.Abs(f-0.3) > 1e-12 {
		t.Fatalf("filled fraction = %g", f)
	}
}

func TestPathTransitionOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order transition did not panic")
		}
	}()
	p := NewPath(0, 10, false)
	p.Transition(5)
	p.Transition(1)
}

func TestPathSampleMatchesStateAt(t *testing.T) {
	p := NewPath(0, 1, true)
	p.Transition(0.25)
	p.Transition(0.5)
	p.Transition(0.75)
	ts, vs := p.Sample(0, 1, 101)
	for i := range ts {
		want := 0.0
		if p.StateAt(ts[i]) {
			want = 1
		}
		if vs[i] != want {
			t.Fatalf("sample %d (t=%g) = %g, want %g", i, ts[i], vs[i], want)
		}
	}
}

func TestUniformiseBadInterval(t *testing.T) {
	ctx := testCtx()
	if _, err := Uniformise(ctx, activeTrap(ctx), waveform.Constant(1), 1, 1, rng.New(1)); err != ErrBadInterval {
		t.Fatal("empty interval accepted")
	}
}

func TestUniformiseDeterministic(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	a, _ := Uniformise(ctx, tr, waveform.Constant(1.2), 0, 1e-3, rng.New(9))
	b, _ := Uniformise(ctx, tr, waveform.Constant(1.2), 0, 1e-3, rng.New(9))
	if a.Transitions() != b.Transitions() {
		t.Fatal("equal seeds gave different paths")
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatal("event times differ")
		}
	}
}

func TestUniformisePathsValid(t *testing.T) {
	ctx := testCtx()
	f := func(seed uint64, eRaw float64) bool {
		e := math.Mod(eRaw, 0.1)
		if math.IsNaN(e) {
			return true
		}
		tr := trap.Trap{Y: 0.45 * ctx.Tox, E: e}
		p, err := Uniformise(ctx, tr, waveform.Constant(1.2), 0, 5e-4, rng.New(seed))
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Under constant bias the time-average occupancy must converge to the
// stationary probability 1/(1+β).
func TestUniformiseStationaryOccupancy(t *testing.T) {
	ctx := testCtx()
	for _, e := range []float64{-0.03, 0, 0.03} {
		tr := trap.Trap{Y: 0.45 * ctx.Tox, E: e}
		want := ctx.OccupancyProb(tr, 1.2)
		tr.InitFilled = want > 0.5
		ls := ctx.RateSum(tr)
		horizon := 3e4 / ls
		p, err := Uniformise(ctx, tr, waveform.Constant(1.2), 0, horizon, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		got := p.FilledFraction()
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("E=%g: occupancy %g, want %g", e, got, want)
		}
	}
}

// Dwell times in each state must be exponential with the exit rates.
func TestUniformiseDwellTimesExponential(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	lc, le := ctx.Rates(tr, 1.2)
	ls := ctx.RateSum(tr)
	p, err := Uniformise(ctx, tr, waveform.Constant(1.2), 0, 4e4/ls, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	filled, empty := p.DwellTimes()
	if len(filled) < 1000 || len(empty) < 1000 {
		t.Fatalf("too few dwells: %d/%d", len(filled), len(empty))
	}
	// KS critical value at alpha≈0.001 is ~1.95/sqrt(n).
	if d := num.KSStatExp(filled, le); d > 1.95/math.Sqrt(float64(len(filled))) {
		t.Fatalf("filled dwells fail KS: %g", d)
	}
	if d := num.KSStatExp(empty, lc); d > 1.95/math.Sqrt(float64(len(empty))) {
		t.Fatalf("empty dwells fail KS: %g", d)
	}
}

// Gillespie and uniformisation must agree distributionally at constant
// bias: compare occupancy and transition counts.
func TestUniformiseMatchesGillespie(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	ls := ctx.RateSum(tr)
	horizon := 2e4 / ls
	u, err := Uniformise(ctx, tr, waveform.Constant(1.2), 0, horizon, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := Gillespie(ctx, tr, 1.2, 0, horizon, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	fu, fg := u.FilledFraction(), g.FilledFraction()
	if math.Abs(fu-fg) > 0.03 {
		t.Fatalf("occupancy disagrees: uniformise %g vs gillespie %g", fu, fg)
	}
	ru := float64(u.Transitions()) / horizon
	rg := float64(g.Transitions()) / horizon
	if math.Abs(ru-rg) > 0.05*rg {
		t.Fatalf("transition rates disagree: %g vs %g", ru, rg)
	}
}

// The ensemble occupancy under a strongly time-varying bias must track
// the exact ODE solution — the core exactness claim of Algorithm 1.
func TestUniformiseMatchesODENonStationary(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	ls := ctx.RateSum(tr)
	cEff := ctx.Coupling * ctx.EffectiveCoupling(tr)
	amp := 4 * units.ThermalVoltage(units.RoomTemperature) / cEff
	period := 5 / ls
	bias := func(t float64) float64 {
		return ctx.VRef + amp*math.Sin(2*math.Pi*t/period)
	}
	t0, t1 := 0.0, 3*period
	tr.InitFilled = false
	const grid = 60
	_, pExact := OccupancyODE(ctx, tr, bias, t0, t1, 0, grid)
	const paths = 6000
	pEmp := make([]float64, grid+1)
	root := rng.New(8)
	for k := 0; k < paths; k++ {
		p, _, err := Reference(ctx, tr, bias, t0, t1, 0, root.Split(uint64(k)), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pEmp {
			if p.StateAt(t0 + (t1-t0)*float64(i)/grid) {
				pEmp[i]++
			}
		}
	}
	for i := range pExact {
		if math.Abs(pExact[i]-pEmp[i]/paths) > 0.03 {
			t.Fatalf("grid %d: ODE %g vs ensemble %g", i, pExact[i], pEmp[i]/paths)
		}
	}
}

// The discretised baseline must converge to the ODE as dt shrinks and
// be visibly biased at coarse dt.
func TestDiscretisedBernoulliBias(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	ls := ctx.RateSum(tr)
	bias := waveform.Constant(1.2).Eval
	horizon := 20 / ls
	tr.InitFilled = false
	const grid = 40
	_, pExact := OccupancyODE(ctx, tr, bias, 0, horizon, 0, grid)

	errAt := func(dt float64) float64 {
		const paths = 3000
		counts := make([]float64, grid+1)
		r := rng.New(21)
		for k := 0; k < paths; k++ {
			p, err := DiscretisedBernoulli(ctx, tr, bias, 0, horizon, dt, r.Split(uint64(k)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= grid; i++ {
				tt := horizon * float64(i) / grid
				if p.StateAt(tt) {
					counts[i]++
				}
			}
		}
		worst := 0.0
		for i := range counts {
			if d := math.Abs(counts[i]/paths - pExact[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	coarse := errAt(1.5 / ls)
	fine := errAt(0.05 / ls)
	if coarse < 2*fine {
		t.Fatalf("baseline bias did not shrink with dt: coarse %g, fine %g", coarse, fine)
	}
	if fine > 0.05 {
		t.Fatalf("fine-step baseline too far from ODE: %g", fine)
	}
}

func TestUniformiseProfilePathIndependence(t *testing.T) {
	// Trap k's path must not depend on how many other traps exist.
	ctx := testCtx()
	short := trap.Profile{Ctx: ctx, Traps: []trap.Trap{activeTrap(ctx)}}
	long := trap.Profile{Ctx: ctx, Traps: []trap.Trap{
		activeTrap(ctx),
		{Y: 0.6 * ctx.Tox, E: 0.05},
		{Y: 0.3 * ctx.Tox, E: -0.02},
	}}
	bias := waveform.Constant(1.2)
	a, _, err := NewBatchState().Run(ctx, short.Traps, bias, 0, 1e-3, 0, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NewBatchState().Run(ctx, long.Traps, bias, 0, 1e-3, 0, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Transitions() != b[0].Transitions() {
		t.Fatal("trap 0's path depends on population size")
	}
	for i := range a[0].Times {
		if a[0].Times[i] != b[0].Times[i] {
			t.Fatal("trap 0's event times differ")
		}
	}
}

func TestOccupancyODEEquilibrium(t *testing.T) {
	// At constant bias the ODE must converge to 1/(1+β).
	ctx := testCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.02}
	ls := ctx.RateSum(tr)
	_, ps := OccupancyODE(ctx, tr, waveform.Constant(1.2).Eval, 0, 30/ls, 0, 3000)
	want := ctx.OccupancyProb(tr, 1.2)
	if got := ps[len(ps)-1]; math.Abs(got-want) > 1e-4 {
		t.Fatalf("ODE equilibrium %g, want %g", got, want)
	}
}

func TestExpectedCandidates(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	want := ctx.RateSum(tr) * 2e-4
	if got := ExpectedCandidates(ctx, tr, 0, 2e-4); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ExpectedCandidates = %g, want %g", got, want)
	}
}

func TestGillespieRejectsBadInput(t *testing.T) {
	ctx := testCtx()
	if _, err := Gillespie(ctx, activeTrap(ctx), 1.2, 5, 4, rng.New(1)); err == nil {
		t.Fatal("reversed interval accepted")
	}
	if _, err := DiscretisedBernoulli(ctx, activeTrap(ctx), waveform.Constant(1.2).Eval, 0, 1, 0, rng.New(1)); err == nil {
		t.Fatal("zero dt accepted")
	}
}
