package markov

import (
	"math"
	"sort"
	"testing"

	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

func tiltTestCtx() trap.Context { return trap.DefaultContext(1.9e-9, 1.2) }

// fuzzedPWL draws a random piecewise-linear bias profile with nSeg
// breakpoints over [0, horizon] and values in [0.8, 1.5] — a
// deterministic pseudo-fuzz: the generating stream has a fixed seed,
// so the profile set is stable run to run (testseed).
func fuzzedPWL(t *testing.T, r *rng.Stream, horizon float64, nSeg int) *waveform.PWL {
	t.Helper()
	times := make([]float64, nSeg)
	vals := make([]float64, nSeg)
	for i := range times {
		times[i] = r.Float64() * horizon
		vals[i] = 0.8 + 0.7*r.Float64()
	}
	sort.Float64s(times)
	// Deduplicate breakpoints: PWL wants strictly increasing times.
	outT, outV := times[:1], vals[:1]
	for i := 1; i < nSeg; i++ {
		if times[i] > outT[len(outT)-1] {
			outT = append(outT, times[i])
			outV = append(outV, vals[i])
		}
	}
	w, err := waveform.New(outT, outV)
	if err != nil {
		t.Fatalf("fuzzed PWL: %v", err)
	}
	return w
}

// TestTiltZeroBitIdentical pins the tilt-0 contract: Reference at
// tiltEV == 0 accumulates a log-LR of exactly +0.0 — not merely a
// small number — and the one-lane Uniformise, which draws from the
// caller's stream itself, reproduces Reference's path on that stream.
func TestTiltZeroBitIdentical(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.03}
	horizon := 200 / ctx.RateSum(tr)
	gen := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		bias := fuzzedPWL(t, gen, horizon, 6)
		ref, logLR, err := Reference(ctx, tr, bias.Eval, 0, horizon, 0, rng.New(uint64(100+trial)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(logLR) != 0 {
			t.Fatalf("trial %d: tilt-0 logLR = %g (bits %x), want exactly +0.0", trial, logLR, math.Float64bits(logLR))
		}
		lane, err := Uniformise(ctx, tr, bias, 0, horizon, rng.New(uint64(100+trial)))
		if err != nil {
			t.Fatal(err)
		}
		if len(lane.Times) != len(ref.Times) {
			t.Fatalf("trial %d: %d transitions, want %d", trial, len(lane.Times), len(ref.Times))
		}
		for i := range ref.Times {
			if math.Float64bits(lane.Times[i]) != math.Float64bits(ref.Times[i]) {
				t.Fatalf("trial %d: transition %d at %x, want %x", trial, i,
					math.Float64bits(lane.Times[i]), math.Float64bits(ref.Times[i]))
			}
			if lane.Filled[i] != ref.Filled[i] {
				t.Fatalf("trial %d: state %d differs", trial, i)
			}
		}
	}
}

// TestTiltLogLRRecompute is the exact-likelihood property test: the
// incrementally accumulated log-LR must equal the post-hoc
// recomputation from the recorded candidate history to the bit,
// across fuzzed bias profiles and tilt strengths.
func TestTiltLogLRRecompute(t *testing.T) {
	ctx := tiltTestCtx()
	gen := rng.New(11)
	tilts := []float64{0, 0.02, -0.05, 0.09, -0.13}
	var rec ThinningRecord
	for trial := 0; trial < 30; trial++ {
		tr := trap.Trap{Y: (0.2 + 0.6*gen.Float64()) * ctx.Tox, E: 0.12 * (gen.Float64() - 0.5)}
		horizon := (50 + 200*gen.Float64()) / ctx.RateSum(tr)
		bias := fuzzedPWL(t, gen, horizon, 8)
		tilt := tilts[trial%len(tilts)]
		_, inc, err := Reference(ctx, tr, bias.Eval, 0, horizon, tilt, rng.New(uint64(300+trial)), &rec)
		if err != nil {
			t.Fatal(err)
		}
		post := RecomputeLogLR(ctx, tr, bias.Eval, tilt, &rec)
		if math.Float64bits(inc) != math.Float64bits(post) {
			t.Fatalf("trial %d (tilt %g): incremental logLR %x != recomputed %x",
				trial, tilt, math.Float64bits(inc), math.Float64bits(post))
		}
	}
}

// TestTiltRecordReplaysPath checks the thinning record is a faithful
// transcript: replaying its accepted candidates reproduces the path.
func TestTiltRecordReplaysPath(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.02}
	horizon := 150 / ctx.RateSum(tr)
	bias := waveform.Constant(1.2)
	var rec ThinningRecord
	p, _, err := Reference(ctx, tr, bias.Eval, 0, horizon, -0.04, rng.New(5), &rec)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []float64
	for i, ti := range rec.Times {
		if rec.Accepts[i] {
			accepted = append(accepted, ti)
		}
	}
	if len(accepted) != len(p.Times)-1 {
		t.Fatalf("record holds %d accepts, path has %d transitions", len(accepted), len(p.Times)-1)
	}
	for i, ti := range accepted {
		if math.Float64bits(ti) != math.Float64bits(p.Times[i+1]) {
			t.Fatalf("accept %d at %x, path transition at %x", i, math.Float64bits(ti), math.Float64bits(p.Times[i+1]))
		}
	}
}

// TestRunTiltedMatchesSequential pins Run's tilted lanes on fuzzed
// bias profiles: lane k's path and log-LR must be bit-identical to
// Reference on Split(k).
func TestRunTiltedMatchesSequential(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.05}
	horizon := 120 / ctx.RateSum(tr)
	gen := rng.New(17)
	traps := make([]trap.Trap, 16)
	for i := range traps {
		traps[i] = tr
	}
	for trial, tilt := range []float64{0, -0.06, 0.04, -0.06} {
		bias := fuzzedPWL(t, gen, horizon, 5+trial)
		root := rng.New(uint64(23 + trial))
		paths, lrs, err := NewBatchState().Run(ctx, traps, bias, 0, horizon, tilt, root)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, ctx, traps, bias, 0, horizon, tilt, root, paths, lrs)
	}
}

// TestTiltedWeightsUnbiased is a kernel-level sanity bound: the mean
// importance weight over many tilted paths concentrates at 1 (the
// likelihood ratio integrates to 1 under the sampling law). The vv
// conformance rows gate this properly; here a loose 5-sigma band
// guards the kernel in isolation.
func TestTiltedWeightsUnbiased(t *testing.T) {
	ctx := tiltTestCtx()
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.10}
	horizon := 60 / ctx.RateSum(tr)
	bias := waveform.Constant(1.2)
	const n = 4000
	traps := make([]trap.Trap, n)
	for i := range traps {
		traps[i] = tr
	}
	_, lrs, err := NewBatchState().Run(ctx, traps, bias, 0, horizon, -0.05, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	sum, sum2 := 0.0, 0.0
	for _, lr := range lrs {
		w := math.Exp(lr)
		sum += w
		sum2 += w * w
	}
	mean := sum / n
	sd := math.Sqrt((sum2/n - mean*mean) / n)
	if math.Abs(mean-1) > 5*sd {
		t.Fatalf("mean weight %g ± %g not compatible with 1", mean, sd)
	}
}
