package baseline

import (
	"math"
	"testing"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

func testSetup() (device.MOSParams, trap.Context) {
	tech := device.Node("90nm")
	dev := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	return dev, tech.TrapContext(tech.Vdd)
}

func TestStationaryTraceIgnoresBias(t *testing.T) {
	dev, ctx := testSetup()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
	profile := trap.Profile{Ctx: ctx, Traps: []trap.Trap{tr}}
	ls := ctx.RateSum(tr)
	horizon := 2e3 / ls

	// A violently swinging bias...
	swing, err := waveform.New([]float64{0, horizon}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	id := waveform.Constant(50e-6)

	_, paths, err := StationaryTrace(profile, dev, ctx.VRef, swing, id, 0, horizon, 256, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// ...must still produce the activity of the frozen reference bias:
	// at VRef the trap is maximally active; at the actual bias (0 V)
	// it would be pinned. Transition count must reflect VRef.
	wantRate := 2.0 / (1/ctx.RateSum(tr)*2 + 0) // ballpark: λs/2 per state change pair
	got := float64(paths[0].Transitions()) / horizon
	if got < wantRate/10 {
		t.Fatalf("stationary baseline froze at the wrong bias: rate %g", got)
	}
	// For contrast, the exact non-stationary simulation at the actual
	// pinned bias produces (almost) no transitions.
	exact, err := markov.Uniformise(ctx, tr, waveform.Constant(0), 0, horizon, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Transitions() > paths[0].Transitions()/10 {
		t.Fatalf("pinned-bias chain unexpectedly active: %d vs %d",
			exact.Transitions(), paths[0].Transitions())
	}
}

func TestWorstCaseBiasFindsActivityPeak(t *testing.T) {
	_, ctx := testSetup()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.05}
	v, act := WorstCaseBias(ctx, tr, 0, 2.4, 256)
	// Peak activity is at β=1, i.e. where the level split crosses 0.
	cEff := ctx.Coupling * ctx.EffectiveCoupling(tr)
	wantV := ctx.VRef + tr.E/cEff
	if math.Abs(v-wantV) > 0.05 {
		t.Fatalf("worst-case bias %g, want ≈%g", v, wantV)
	}
	if act < 0.99 {
		t.Fatalf("peak activity %g, want ≈1", act)
	}
}

func TestWorstCasePowerBoundsSingleTrap(t *testing.T) {
	dev, ctx := testSetup()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
	profile := trap.Profile{Ctx: ctx, Traps: []trap.Trap{tr}}
	id := 50e-6
	p := WorstCasePower(profile, dev, id, 0, 2.4)
	// Single trap worst case: ΔI²·(1/4) at the activity peak.
	dI := rtn.StepAmplitude(dev, ctx.VRef, id)
	want := dI * dI / 4
	if math.Abs(p-want) > 0.1*want {
		t.Fatalf("worst-case power %g, want ≈%g", p, want)
	}
}

func TestEmpiricalPowerMatchesVariance(t *testing.T) {
	tr := &rtn.Trace{T: []float64{0, 1, 2, 3}, I: []float64{1, -1, 1, -1}}
	if p := EmpiricalPower(tr); math.Abs(p-1) > 1e-12 {
		t.Fatalf("power = %g, want 1", p)
	}
	if EmpiricalPower(&rtn.Trace{}) != 0 {
		t.Fatal("empty trace power must be 0")
	}
}

func TestPessimismDB(t *testing.T) {
	if db := PessimismDB(10, 1); math.Abs(db-10) > 1e-12 {
		t.Fatalf("10x → %g dB", db)
	}
	if db := PessimismDB(1, 1); math.Abs(db) > 1e-12 {
		t.Fatalf("1x → %g dB", db)
	}
	if !math.IsInf(PessimismDB(1, 0), 1) {
		t.Fatal("zero actual must give +Inf")
	}
}
