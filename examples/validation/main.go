// Validation checks the SAMURAI core against closed-form stationary
// theory on a single trap (the paper's Fig 7 in miniature): the
// empirical autocorrelation and spectral density of a uniformisation-
// generated trace must match the analytical Lorentzian expressions.
package main

import (
	"fmt"
	"log"
	"math"

	"samurai/internal/analysis"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

func main() {
	log.SetFlags(0)

	tech := device.Node("90nm")
	dev := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	ctx := tech.TrapContext(tech.Vdd)

	// A mid-oxide trap biased at its maximum-activity point.
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0.02}
	cEff := ctx.Coupling * ctx.EffectiveCoupling(tr)
	vgs := ctx.VRef + tr.E/cEff // β = 1 here
	lc, le := ctx.Rates(tr, vgs)
	ls := ctx.RateSum(tr)
	fmt.Printf("trap: y = %.2f·tox, E = %+.3f eV\n", tr.Y/ctx.Tox, tr.E)
	fmt.Printf("bias %.3f V → λc = %.3g /s, λe = %.3g /s (sum %.3g, Eq 1 invariant)\n\n", vgs, lc, le, ls)

	// Simulate long enough for ~20k transitions.
	const samples = 1 << 19
	horizon := 4e4 / ls
	dt := horizon / samples
	path, err := markov.Uniformise(ctx, tr, waveform.Constant(vgs), 0, horizon, rng.New(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %.3g s, %d transitions\n", horizon, path.Transitions())

	id := 50e-6
	deltaI := rtn.StepAmplitude(dev, vgs, id)
	_, states := path.Sample(0, horizon, samples)
	x := make([]float64, samples)
	for i, s := range states {
		x[i] = s * deltaI
	}
	ana := analysis.LorentzianParams{DeltaI: deltaI, Lc: lc, Le: le}

	// --- time domain ---
	maxLag := int(3 / ls / dt)
	lags, rEmp, err := analysis.AutocorrelationFFT(x, dt, maxLag)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nR(tau): simulated vs analytical")
	for k := 0; k < len(lags); k += maxLag / 5 {
		fmt.Printf("  tau = %9.3g s   sim %.4g   theory %.4g\n",
			lags[k], rEmp[k], ana.Autocorrelation(lags[k]))
	}

	// --- frequency domain ---
	freqs, psd, err := analysis.Welch(x, dt, samples/64)
	if err != nil {
		log.Fatal(err)
	}
	corner := ana.CornerFrequency()
	fmt.Printf("\nS(f): simulated vs analytical (corner %.3g Hz)\n", corner)
	for _, mult := range []float64{0.1, 0.3, 1, 3, 10} {
		f := corner * mult
		idx := nearest(freqs, f)
		fmt.Printf("  f = %9.3g Hz   sim %.4g   theory %.4g   thermal floor %.3g\n",
			freqs[idx], psd[idx], ana.SampledPSD(freqs[idx], dt),
			dev.ThermalNoisePSD(vgs, vgs))
	}
}

func nearest(xs []float64, target float64) int {
	best, bestD := 0, math.Inf(1)
	for i, x := range xs {
		if d := math.Abs(x - target); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
