package markov

import (
	"math"

	"samurai/internal/trap"
)

// This file is the importance-sampling variant of Algorithm 1: the
// trap is *sampled* under an energy-tilted propensity split while the
// exact likelihood ratio against the nominal law is accumulated from
// the thinning accept/reject record.
//
// The tilt is an energy shift E → E+dE on the trap's compiled
// constants (trap.CompiledTrap.Tilted). Because λ_c+λ_e is
// bias-independent (Eq 1) and the shift only re-splits the sum through
// β (Eq 2), the nominal majorant λ* remains the tilted process's exact
// majorant: candidate instants have the *same* law under both
// measures, and the two processes differ only in the per-candidate
// accept probability. The per-path Radon–Nikodym derivative therefore
// factorises over candidates:
//
//	accept at t:  p(t)/q(t)
//	reject at t:  (1−p(t))/(1−q(t))
//
// with p = λ_next(t)/λ* the nominal accept probability and
// q = λ'_next(t)/λ* the tilted one. Reference and BatchState.Run
// accumulate the log of these factors term by term; at dE = 0 the
// tilted constants are bit-identical to the nominal ones, every factor
// is exactly 1 and log(1) = 0.0 exactly.

// ThinningRecord captures the full accept/reject history of one
// tilted uniformisation run: every candidate instant inside the
// horizon and whether it was accepted. The record is sufficient to
// recompute the path *and* its log-likelihood ratio post hoc
// (RecomputeLogLR), which is how the property tests pin the
// incremental accumulation to the bit.
type ThinningRecord struct {
	Times   []float64
	Accepts []bool
}

// reset clears the record for reuse.
func (tr *ThinningRecord) reset() {
	tr.Times = tr.Times[:0]
	tr.Accepts = tr.Accepts[:0]
}

// thinProbs returns the nominal (pN) and tilted (qT) accept
// probabilities of a candidate at bias v in the given state. Every
// kernel — Reference, RecomputeLogLR and the compiled BatchState — goes
// through this one arithmetic, which is what makes their decisions and
// log-LRs agree to the bit.
func thinProbs(nom, til trap.CompiledTrap, v float64, filled bool) (pN, qT float64) {
	lcN, leN := nom.Rates(v)
	lcT, leT := til.Rates(v)
	if filled {
		return leN / nom.Sum, leT / nom.Sum
	}
	return lcN / nom.Sum, lcT / nom.Sum
}

// logLRFactor is the log of one candidate's likelihood-ratio factor:
// p/q on accept, (1−p)/(1−q) on reject.
func logLRFactor(pN, qT float64, accept bool) float64 {
	if accept {
		return math.Log(pN / qT)
	}
	return math.Log((1 - pN) / (1 - qT))
}

// RecomputeLogLR re-derives the log-likelihood ratio of a recorded
// tilted run from its candidate history alone, using the identical
// arithmetic and accumulation order as Reference — the two
// results must agree to the bit (TestTiltLogLRRecompute pins this).
func RecomputeLogLR(ctx trap.Context, tr trap.Trap, vgs BiasFunc, tiltEV float64, rec *ThinningRecord) float64 {
	nom := ctx.Compile(tr)
	til := nom.Tilted(tiltEV)
	filled := tr.InitFilled
	logLR := 0.0
	for i, t := range rec.Times {
		pN, qT := thinProbs(nom, til, vgs(t), filled)
		if rec.Accepts[i] {
			filled = !filled
		}
		logLR += logLRFactor(pN, qT, rec.Accepts[i])
	}
	return logLR
}
