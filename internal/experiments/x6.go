package experiments

import (
	"fmt"
	"io"

	"samurai/internal/markov"
	"samurai/internal/pll"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// X6Row is one RTN-amplitude point of the PLL cycle-slip study.
type X6Row struct {
	// DeltaFOverLock is δf normalised to the lock range K/2π.
	DeltaFOverLock float64
	Slips          int
	Predicted      float64
	TimeFilledFrac float64
}

// X6Result is the PLL cycle-slip conjecture made quantitative (paper
// future-work #4: "We also conjecture that RTN causes cycle slipping in
// Phase Locked Loops"): a VCO-bias trap toggles the oscillator
// frequency by δf; below the lock range the loop rides the glitches
// out, above it every filled interval produces cycle slips at the
// analytical beat rate.
type X6Result struct {
	LoopGain  float64
	TrapRate  float64
	Rows      []X6Row
	Threshold float64 // K/2π, Hz
}

// X6Config controls EXP-X6.
type X6Config struct {
	Seed uint64
	// LoopGain K in rad/s (default 1e6).
	LoopGain float64
}

func (c X6Config) defaults() X6Config {
	if c.LoopGain == 0 {
		c.LoopGain = 1e6
	}
	return c
}

// X6 simulates a trap whose dwell times are long against the loop time
// constant (so each capture is a frequency step the loop must absorb)
// and sweeps the RTN-induced VCO shift across the lock range.
func X6(cfg X6Config) (*X6Result, error) {
	cfg = cfg.defaults()
	k := cfg.LoopGain
	// Trap toggling ~200× slower than the loop: dwell ≈ 100/K.
	ctx := trap.DefaultContext(2e-9, 1.0)
	// Pick a depth whose rate sum lands near K/100 and an energy at
	// β ≈ 1 so the trap actually toggles.
	// RateSum = 1/(τ0·e^(γy)) = K/100 → y = ln(100/(τ0·K))/γ.
	// With τ0 = 1e-10 and K = 1e6: y = ln(1e6)/1e10 ≈ 1.38 nm.
	yDepth := 0.0
	for y := 0.0; y < ctx.Tox; y += ctx.Tox / 4096 {
		if ctx.RateSum(trap.Trap{Y: y}) <= k/100 {
			yDepth = y
			break
		}
	}
	if yDepth == 0 {
		return nil, fmt.Errorf("experiments: no trap depth slow enough for K=%g", k)
	}
	tr := trap.Trap{Y: yDepth, E: 0}
	ls := ctx.RateSum(tr)
	horizon := 40 / ls
	path, err := markov.Uniformise(ctx, tr, waveform.Constant(ctx.VRef), 0, horizon, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}

	res := &X6Result{LoopGain: k, TrapRate: ls, Threshold: k / (2 * 3.141592653589793)}
	for _, ratio := range []float64{0.5, 0.9, 1.5, 3.0} {
		df := ratio * res.Threshold
		out, err := pll.Simulate(pll.Config{K: k, DeltaF: df}, path)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, X6Row{
			DeltaFOverLock: ratio,
			Slips:          out.Slips,
			Predicted:      out.PredictedSlips,
			TimeFilledFrac: out.TimeFilled / horizon,
		})
	}
	return res, nil
}

// WriteText renders the EXP-X6 table.
func (r *X6Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-X6 — RTN-induced PLL cycle slipping (loop gain %.3g rad/s, lock range %.3g Hz, trap rate %.3g /s)\n",
		r.LoopGain, r.Threshold, r.TrapRate)
	fmt.Fprintf(w, "%14s %10s %12s %14s\n", "δf / lock", "slips", "predicted", "filled frac")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%14.2f %10d %12.1f %14.2f\n",
			row.DeltaFOverLock, row.Slips, row.Predicted, row.TimeFilledFrac)
	}
}
