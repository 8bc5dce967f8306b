package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"samurai/internal/baseline"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/trap"
	"samurai/internal/units"
	"samurai/internal/waveform"
)

// ---------------------------------------------------------------------
// EXP-T1: uniformisation vs time-discretised Bernoulli baseline.
// ---------------------------------------------------------------------

// T1Row compares the two simulators at one baseline step size.
type T1Row struct {
	// DtOverTau is the baseline step as a fraction of the mean dwell.
	DtOverTau float64
	// BaselineErr and UniformErr are the max |P₁(t)| deviations of the
	// ensemble occupancy from the exact ODE solution.
	BaselineErr, UniformErr float64
	// BaselineSteps and UniformEvents are the per-path work performed.
	BaselineSteps, UniformEvents float64
	// BaselineNs and UniformNs are measured per-path wall times.
	BaselineNs, UniformNs float64
}

// T1Result is the accuracy/efficiency table (implied by §III: the
// uniformised chain is exact at event-driven cost, while a discretised
// simulator pays O(dt) bias at O(1/dt) cost).
type T1Result struct {
	Rows []T1Row
	// Paths is the ensemble size used for the error estimates.
	Paths int
}

// T1Config controls EXP-T1.
type T1Config struct {
	Seed  uint64
	Paths int // default 4000
}

// T1 runs a single trap under a sinusoid-modulated bias (a demanding
// non-stationary case) with both simulators, comparing their ensemble
// occupancies against the exact ODE.
func T1(cfg T1Config) (*T1Result, error) {
	if cfg.Paths == 0 {
		cfg.Paths = 4000
	}
	tech := device.Node("90nm")
	ctx := tech.TrapContext(tech.Vdd)
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.02}
	ls := ctx.RateSum(tr)
	// Bias oscillating through the trap's active window at a period
	// comparable to the dwell time — strongly non-stationary.
	cEff := ctx.Coupling * ctx.EffectiveCoupling(tr)
	vStar := ctx.VRef + tr.E/cEff
	amp := 4 * units.ThermalVoltage(units.RoomTemperature) / cEff
	period := 6 / ls
	bias := func(t float64) float64 {
		return vStar + amp*math.Sin(2*math.Pi*t/period)
	}
	t0, t1 := 0.0, 5*period
	tr.InitFilled = false
	const gridN = 100
	_, pExact := markov.OccupancyODE(ctx, tr, bias, t0, t1, 0, gridN)

	root := rng.New(cfg.Seed)
	res := &T1Result{Paths: cfg.Paths}

	// Uniformisation reference (one row-shared measurement).
	uniErr, uniEvents, uniNs, err := t1Uniform(ctx, tr, bias, t0, t1, pExact, cfg.Paths, root.Split(1))
	if err != nil {
		return nil, err
	}
	for i, frac := range []float64{1.0, 0.3, 0.1, 0.03} {
		dt := frac / ls
		bErr, bSteps, bNs, err := t1Baseline(ctx, tr, bias, t0, t1, dt, pExact, cfg.Paths, root.Split(uint64(10+i)))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, T1Row{
			DtOverTau:     frac,
			BaselineErr:   bErr,
			UniformErr:    uniErr,
			BaselineSteps: bSteps,
			UniformEvents: uniEvents,
			BaselineNs:    bNs,
			UniformNs:     uniNs,
		})
	}
	return res, nil
}

// t1Uniform measures the uniformisation column. The sinusoidal bias is
// analytic, not a PWL, so this column runs the literal per-candidate
// kernel (markov.Reference) rather than the compiled one.
func t1Uniform(ctx trap.Context, tr trap.Trap, bias markov.BiasFunc, t0, t1 float64, pExact []float64, nPaths int, r *rng.Stream) (maxErr, events, perPathNs float64, err error) {
	grid := len(pExact) - 1
	counts := make([]float64, grid+1)
	start := time.Now()
	total := 0
	for k := 0; k < nPaths; k++ {
		p, _, e := markov.Reference(ctx, tr, bias, t0, t1, 0, r.Split(uint64(k)), nil)
		if e != nil {
			return 0, 0, 0, e
		}
		total += p.Transitions()
		accumulate(p, t0, t1, counts)
	}
	elapsed := time.Since(start)
	maxErr = maxAbsDiff(counts, pExact, nPaths)
	// Events ≈ candidates: rate·horizon (transitions ≤ candidates).
	events = ctx.RateSum(tr) * (t1 - t0)
	return maxErr, events, float64(elapsed.Nanoseconds()) / float64(nPaths), nil
}

func t1Baseline(ctx trap.Context, tr trap.Trap, bias markov.BiasFunc, t0, t1, dt float64, pExact []float64, nPaths int, r *rng.Stream) (maxErr, steps, perPathNs float64, err error) {
	grid := len(pExact) - 1
	counts := make([]float64, grid+1)
	start := time.Now()
	for k := 0; k < nPaths; k++ {
		p, e := markov.DiscretisedBernoulli(ctx, tr, bias, t0, t1, dt, r.Split(uint64(k)))
		if e != nil {
			return 0, 0, 0, e
		}
		accumulate(p, t0, t1, counts)
	}
	elapsed := time.Since(start)
	return maxAbsDiff(counts, pExact, nPaths), (t1 - t0) / dt, float64(elapsed.Nanoseconds()) / float64(nPaths), nil
}

func accumulate(p *markov.Path, t0, t1 float64, counts []float64) {
	grid := len(counts) - 1
	for i := 0; i <= grid; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(grid)
		if p.StateAt(t) {
			counts[i]++
		}
	}
}

func maxAbsDiff(counts, pExact []float64, n int) float64 {
	m := 0.0
	for i := range counts {
		d := math.Abs(counts[i]/float64(n) - pExact[i])
		if d > m {
			m = d
		}
	}
	return m
}

// WriteText renders the EXP-T1 table.
func (r *T1Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-T1 — uniformisation (exact) vs discretised Bernoulli baseline (%d paths)\n", r.Paths)
	fmt.Fprintf(w, "%10s %14s %14s %14s %14s %12s %12s\n",
		"dt/tau", "baseline err", "uniform err", "base steps", "uni events", "base ns", "uni ns")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10.2f %14.4f %14.4f %14.0f %14.0f %12.0f %12.0f\n",
			row.DtOverTau, row.BaselineErr, row.UniformErr,
			row.BaselineSteps, row.UniformEvents, row.BaselineNs, row.UniformNs)
	}
}

// ---------------------------------------------------------------------
// EXP-T2: pessimism of stationary analysis.
// ---------------------------------------------------------------------

// T2Result quantifies the dB gap between a stationary worst-case RTN
// power prediction and the power realised under a switching gate (§I-B
// reports measured gaps of up to ~15 dB).
type T2Result struct {
	// Duty is the fraction of time the gate is high.
	Duty []float64
	// PredictedPower is the stationary worst-case prediction, A².
	PredictedPower float64
	// ActualPower[i] is the realised non-stationary power at Duty[i].
	ActualPower []float64
	// PessimismDB[i] = 10·log10(predicted/actual).
	PessimismDB []float64
	Traps       int
}

// T2Config controls EXP-T2.
type T2Config struct {
	Seed    uint64
	Samples int // reserved for PSD extensions
}

// T2 compares stationary worst-case RTN power against the realised
// power when the device's gate is duty-cycled, using the same trap
// population for both.
func T2(cfg T2Config) (*T2Result, error) {
	if cfg.Samples == 0 {
		cfg.Samples = 1 << 16
	}
	tech := device.Node("45nm")
	dev := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	ctx := tech.TrapContext(tech.Vdd)
	root := rng.New(cfg.Seed)
	profile := tech.TrapProfiler().Sample(dev.W, dev.L, ctx, root.Split(0))

	vHi, vLo := tech.Vdd, 0.0
	idHi := dev.Eval(vHi, vHi/2).Ids
	predicted := baseline.WorstCasePower(profile, dev, idHi, vLo, vHi)

	res := &T2Result{PredictedPower: predicted, Traps: len(profile.Traps)}
	// Switched ("cyclostationary") operation, Kolhatkar-style (paper
	// ref [2]): the gate is duty-cycled and the output noise is
	// measured by synchronous sampling at a fixed phase near the end
	// of each conducting window. Switching faster than a trap's
	// corner pins its occupancy, so the observed noise power falls
	// below the stationary worst-case prediction — the pessimism gap.
	const periods = 2000
	period := 1e-5
	horizon := float64(periods) * period
	dI := rtn.StepAmplitude(dev, vHi, idHi)

	// Partition the population: traps that equilibrate many times
	// within one period are exactly at their instantaneous stationary
	// distribution at every synchronous sample — their variance
	// contribution dI²·p(1−p)|_{vHi} is added in closed form, and the
	// event-driven simulation is reserved for the slow and mid traps
	// whose memory across periods is the whole point of the
	// non-stationary analysis. (Simulating a 10 GHz interface trap for
	// 2·10⁴ periods would cost ~10⁸ candidate events for a
	// contribution that is known analytically.)
	fastVar := 0.0
	slow := trap.Profile{Ctx: profile.Ctx}
	for _, tr := range profile.Traps {
		if ctx.RateSum(tr)*period > 50 {
			p := ctx.OccupancyProb(tr, vHi)
			fastVar += dI * dI * p * (1 - p)
		} else {
			slow.Traps = append(slow.Traps, tr)
		}
	}

	for i, duty := range []float64{1.0, 0.75, 0.5, 0.25} {
		bias := waveform.Square(vLo, vHi, period, duty, horizon)
		paths, _, err := markov.NewBatchState().Run(slow.Ctx, slow.Traps, bias, 0, horizon, 0, root.Split(uint64(100+i)))
		if err != nil {
			return nil, err
		}
		// Synchronous samples of N_filled at 90% through each
		// conducting window; Eq (3) converts to current.
		times, counts := rtn.NFilled(paths)
		samples := make([]float64, periods)
		for k := 0; k < periods; k++ {
			t := (float64(k) + 0.9*duty) * period
			samples[k] = dI * float64(rtn.CountAt(times, counts, t))
		}
		actual := variance(samples) + fastVar
		res.Duty = append(res.Duty, duty)
		res.ActualPower = append(res.ActualPower, actual)
		res.PessimismDB = append(res.PessimismDB, baseline.PessimismDB(predicted, actual))
	}
	return res, nil
}

func variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	s := 0.0
	for _, v := range x {
		d := v - mean
		s += d * d
	}
	return s / float64(len(x))
}

// WriteText renders the EXP-T2 table.
func (r *T2Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-T2 — stationary worst-case vs realised RTN power (%d traps)\n", r.Traps)
	fmt.Fprintf(w, "predicted worst-case power: %.4g A²\n", r.PredictedPower)
	fmt.Fprintf(w, "%8s %16s %14s\n", "duty", "actual power", "pessimism dB")
	for i := range r.Duty {
		fmt.Fprintf(w, "%8.2f %16.4g %14.1f\n", r.Duty[i], r.ActualPower[i], r.PessimismDB[i])
	}
}

// MaxPessimism returns the largest dB gap observed.
func (r *T2Result) MaxPessimism() float64 {
	m := math.Inf(-1)
	for _, v := range r.PessimismDB {
		if v > m && !math.IsInf(v, 1) {
			m = v
		}
	}
	return m
}
