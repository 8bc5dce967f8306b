package markov

import (
	"errors"
	"math"
	"testing"

	"samurai/internal/rng"
	"samurai/internal/waveform"
)

func TestUniformiseGeneralMatchesUniformiseExactly(t *testing.T) {
	// With the Eq (1) model and the invariant-sum majorant, the general
	// path must reproduce the specialised one event for event (same
	// random stream, same thinning decisions).
	ctx := testCtx()
	tr := activeTrap(ctx)
	bias := waveform.Constant(1.25).Eval
	rates := func(tt float64) (float64, float64) { return ctx.Rates(tr, bias(tt)) }
	ls := ctx.RateSum(tr)
	horizon := 2e3 / ls

	a, err := Uniformise(ctx, tr, waveform.Constant(1.25), 0, horizon, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := UniformiseGeneral(rates, ls, tr.InitFilled, 0, horizon, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Transitions() != b.Transitions() {
		t.Fatalf("transition counts differ: %d vs %d", a.Transitions(), b.Transitions())
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatal("event times differ")
		}
	}
}

func TestUniformiseGeneralRejectsBadMajorant(t *testing.T) {
	rates := func(float64) (float64, float64) { return 100, 100 }
	if _, err := UniformiseGeneral(rates, 0, false, 0, 1, rng.New(1)); err == nil {
		t.Fatal("zero majorant accepted")
	}
	_, err := UniformiseGeneral(rates, 10, false, 0, 10, rng.New(1))
	if !errors.Is(err, ErrMajorantViolated) {
		t.Fatalf("majorant violation not detected: %v", err)
	}
}

func TestMajorantScan(t *testing.T) {
	rates := func(tt float64) (float64, float64) {
		return 10 + 5*math.Sin(tt), 3
	}
	m := Majorant(rates, 0, 10, 1000, 1.0)
	if math.Abs(m-15) > 0.1 {
		t.Fatalf("majorant = %g, want ≈15", m)
	}
	if Majorant(rates, 0, 10, 1000, 1.2) < m {
		t.Fatal("safety factor not applied")
	}
}

// The SRH model (carrier-dependent capture) must match its own exact
// ODE under a switching bias — the generalised-uniformisation
// correctness check for a model with non-constant rate sum.
func TestSRHModelMatchesODE(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	ls := ctx.RateSum(tr)
	period := 8 / ls
	bias := func(tt float64) float64 {
		if math.Mod(tt, period) < period/2 {
			return ctx.VRef
		}
		return ctx.VRef - 0.1
	}
	// Carrier density falling exponentially below VRef (subthreshold).
	carriers := func(v float64) float64 {
		return 1e17 * math.Exp((v-ctx.VRef)/0.06)
	}
	rates := SRHRates(ctx, tr, bias, carriers)

	// The sum must really vary (otherwise this test proves nothing).
	lc1, le1 := rates(0.1 * period)
	lc2, le2 := rates(0.6 * period)
	if math.Abs((lc1+le1)-(lc2+le2)) < 0.1*(lc1+le1) {
		t.Fatalf("SRH rate sum unexpectedly constant: %g vs %g", lc1+le1, lc2+le2)
	}

	t0, t1 := 0.0, 3*period
	star := Majorant(rates, t0, t1, 4096, 1.05)
	const grid = 50
	// Integrate the oracle on a grid fine enough for the stiffest
	// phase (h·λmax ≪ 1), then subsample to the comparison grid.
	const oversample = 400
	_, pFine := OccupancyODEFunc(rates, t0, t1, 0, grid*oversample)
	pExact := make([]float64, grid+1)
	for i := 0; i <= grid; i++ {
		pExact[i] = pFine[i*oversample]
	}

	const paths = 3000
	counts := make([]float64, grid+1)
	root := rng.New(9)
	for k := 0; k < paths; k++ {
		p, err := UniformiseGeneral(rates, star, false, t0, t1, root.Split(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= grid; i++ {
			tt := t0 + (t1-t0)*float64(i)/grid
			if p.StateAt(tt) {
				counts[i]++
			}
		}
	}
	for i := range counts {
		emp := counts[i] / paths
		if math.Abs(emp-pExact[i]) > 0.04 {
			t.Fatalf("grid %d: ensemble %g vs ODE %g", i, emp, pExact[i])
		}
	}
}

func TestOccupancyODEFuncMatchesSpecialised(t *testing.T) {
	ctx := testCtx()
	tr := activeTrap(ctx)
	bias := waveform.Constant(1.22).Eval
	rates := func(tt float64) (float64, float64) { return ctx.Rates(tr, bias(tt)) }
	ls := ctx.RateSum(tr)
	_, a := OccupancyODE(ctx, tr, bias, 0, 10/ls, 0.3, 200)
	_, b := OccupancyODEFunc(rates, 0, 10/ls, 0.3, 200)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("generalised ODE disagrees with specialised one")
		}
	}
}
