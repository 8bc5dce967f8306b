// Package rareevent is the variance-reduction layer of the Monte
// Carlo stack: unbiased importance-sampling estimation over
// likelihood-reweighted paths (the weights come from the exact
// thinning log-LR of markov.BatchState.Run) and fixed multilevel
// splitting over a monotone level function (the glitch depth of
// sram.GlitchDepth). Everything here is plain deterministic
// arithmetic over per-path (weight, indicator) pairs — callers feed
// outcomes in a fixed order (cell index, root-particle index) and the
// aggregates are bit-reproducible.
package rareevent

import (
	"math"

	"samurai/internal/obs"
)

// Z95 is the two-sided 95% normal quantile used for the reported
// confidence half-widths.
const Z95 = 1.959963984540054

// Estimator accumulates the unnormalised importance-sampling
// estimator of E_nominal[X] from tilted samples: feed one
// (weight, indicator) pair per path and read the mean Σwx/n, whose
// unbiasedness is exactly the likelihood-ratio identity
// E_tilted[wX] = E_nominal[X]. The self-normalised variant is
// deliberately absent — it trades unbiasedness for variance and would
// fail the vv conformance gates.
type Estimator struct {
	n                                  int
	sumW, sumW2, sumWX, sumWX2, sumW2X float64
}

// Add records one path: w its likelihood-ratio weight (exp of the
// thinning log-LR, possibly divided by a splitting denominator), x
// the indicator or functional value under estimation.
func (e *Estimator) Add(w, x float64) {
	e.n++
	e.sumW += w
	e.sumW2 += w * w
	wx := w * x
	e.sumWX += wx
	e.sumWX2 += wx * wx
	e.sumW2X += w * wx
}

// N returns the number of paths recorded.
func (e *Estimator) N() int { return e.n }

// Mean returns the unbiased IS estimate Σwx/n.
func (e *Estimator) Mean() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	return e.sumWX / float64(e.n)
}

// MeanWeight returns Σw/n; under a correctly accumulated likelihood
// ratio its expectation is exactly 1, which is both the control
// variate's known mean and the conformance oracle for broken weights.
func (e *Estimator) MeanWeight() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	return e.sumW / float64(e.n)
}

// ESS is the Kish effective sample size (Σw)²/Σw² — how many naive
// (unit-weight) paths the weighted ensemble is worth.
func (e *Estimator) ESS() float64 {
	if e.sumW2 == 0 {
		return 0
	}
	return e.sumW * e.sumW / e.sumW2
}

// WeightVariance is the sample variance of the weights — the
// likelihood-ratio variance the report carries (0 exactly at tilt 0,
// where every weight is exactly 1).
func (e *Estimator) WeightVariance() float64 {
	if e.n < 2 {
		return 0
	}
	n := float64(e.n)
	mean := e.sumW / n
	v := (e.sumW2 - n*mean*mean) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// CIHalfWidth is the z-quantile CLT half-width of Mean().
func (e *Estimator) CIHalfWidth(z float64) float64 {
	if e.n < 2 {
		return math.Inf(1)
	}
	n := float64(e.n)
	mean := e.sumWX / n
	v := (e.sumWX2 - n*mean*mean) / (n - 1)
	if v < 0 {
		v = 0
	}
	return z * math.Sqrt(v/n)
}

// ControlAdjusted returns the control-variate-adjusted estimate using
// the weight itself as the control (its mean is exactly 1):
// mean(wx) − β·(mean(w)−1) with β the regression coefficient
// cov(wx, w)/var(w). The adjustment estimates β from the same sample,
// so it carries an O(1/n) bias — it is reported for diagnostics and
// variance comparison, while the unbiased Mean() is what the
// conformance gates certify.
func (e *Estimator) ControlAdjusted() float64 {
	if e.n < 2 {
		return e.Mean()
	}
	n := float64(e.n)
	varW := e.sumW2/n - (e.sumW/n)*(e.sumW/n)
	if varW <= 0 {
		return e.Mean()
	}
	cov := e.sumW2X/n - (e.sumWX/n)*(e.sumW/n)
	beta := cov / varW
	return e.sumWX/n - beta*(e.sumW/n-1)
}

// ArrayStats is the rare-event aggregate block attached to array
// sweeps, jobd summaries and vv scenario rows. Field order is fixed
// (no maps), so JSON encodings are bit-stable for fixed inputs.
type ArrayStats struct {
	// TiltEV is the energy tilt the sweep sampled under, eV.
	TiltEV float64 `json:"tilt_ev"`
	// N is the number of weighted paths (cells).
	N int `json:"n"`
	// PFail is the unbiased IS estimate of the failure probability.
	PFail float64 `json:"p_fail"`
	// ESS is the Kish effective sample size of the weights.
	ESS float64 `json:"ess"`
	// LRVar is the sample variance of the likelihood-ratio weights.
	LRVar float64 `json:"lr_var"`
	// CIHalf is the 95% CLT confidence half-width of PFail.
	CIHalf float64 `json:"ci_half"`
	// CVAdjusted is the control-variate-adjusted estimate (weight
	// control, known mean 1); diagnostic, slightly biased, see
	// Estimator.ControlAdjusted.
	CVAdjusted float64 `json:"cv_adjusted"`
}

var (
	mRareESS = obs.GetGauge("samurai_rare_ess",
		"effective sample size of the most recent rare-event aggregate")
	mRareLRVar = obs.GetGauge("samurai_rare_lr_variance",
		"likelihood-ratio weight variance of the most recent rare-event aggregate")
	mRarePaths = obs.GetCounter("samurai_rare_paths_total",
		"weighted paths aggregated by rare-event estimators")
)

// Stats snapshots the estimator into the reportable aggregate block
// (and publishes the ESS / weight-variance gauges).
func (e *Estimator) Stats(tiltEV float64) ArrayStats {
	st := ArrayStats{
		TiltEV:     tiltEV,
		N:          e.n,
		PFail:      e.Mean(),
		ESS:        e.ESS(),
		LRVar:      e.WeightVariance(),
		CIHalf:     e.CIHalfWidth(Z95),
		CVAdjusted: e.ControlAdjusted(),
	}
	mRareESS.Set(st.ESS)
	mRareLRVar.Set(st.LRVar)
	mRarePaths.Add(int64(e.n))
	return st
}

// NaivePaths returns how many unweighted Monte-Carlo paths a naive
// estimator of a probability p needs for a z-quantile CI half-width
// of half — the denominator of the paths-to-target-CI speedup the
// benchmarks pin: z²·p(1−p)/half².
func NaivePaths(p, half, z float64) float64 {
	if half <= 0 {
		return math.Inf(1)
	}
	return z * z * p * (1 - p) / (half * half)
}
