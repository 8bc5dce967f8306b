// Package waveform implements piecewise-linear (PWL) waveforms — the
// interchange format between the circuit simulator and the SAMURAI RTN
// engine. The circuit simulator exports node voltages and device
// currents as PWL waveforms; SAMURAI evaluates trap propensities on
// them; the generated I_RTN traces go back into the circuit as PWL
// current sources.
package waveform

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// PWL is a piecewise-linear waveform: value is interpolated linearly
// between breakpoints and held constant outside the time range.
// Times must be strictly increasing.
type PWL struct {
	T []float64
	V []float64
}

// New constructs a PWL from parallel slices, validating monotonic time.
func New(t, v []float64) (*PWL, error) {
	if len(t) != len(v) {
		return nil, errors.New("waveform: time and value lengths differ")
	}
	if len(t) == 0 {
		return nil, errors.New("waveform: empty waveform")
	}
	for i := 1; i < len(t); i++ {
		if !(t[i] > t[i-1]) {
			return nil, fmt.Errorf("waveform: times not strictly increasing at index %d (%g then %g)", i, t[i-1], t[i])
		}
	}
	return &PWL{T: t, V: v}, nil
}

// Constant returns a waveform with the given constant value, defined at
// t = 0 (and by extension everywhere).
func Constant(v float64) *PWL {
	return &PWL{T: []float64{0}, V: []float64{v}}
}

// Square returns a square wave over [0, tf] that is hi on
// [k·period, (k+duty)·period) and lo elsewhere. Each edge is two
// breakpoints one ulp apart, so Eval returns exactly lo or hi at every
// instant: the only interpolated interval is empty between them.
func Square(lo, hi, period, duty, tf float64) *PWL {
	switch {
	case duty >= 1:
		return Constant(hi)
	case duty <= 0:
		return Constant(lo)
	}
	w := &PWL{T: []float64{0}, V: []float64{hi}}
	edge := func(t, from, to float64) bool {
		if t > tf {
			return false
		}
		w.T = append(w.T, math.Nextafter(t, math.Inf(-1)), t)
		w.V = append(w.V, from, to)
		return true
	}
	for k := 0.0; ; k++ {
		if !edge((k+duty)*period, hi, lo) || !edge((k+1)*period, lo, hi) {
			return w
		}
	}
}

// Eval returns the waveform value at time t, holding the first/last
// value outside the breakpoint range.
func (w *PWL) Eval(t float64) float64 {
	n := len(w.T)
	if n == 1 || t <= w.T[0] {
		return w.V[0]
	}
	if t >= w.T[n-1] {
		return w.V[n-1]
	}
	// Binary search for the segment containing t.
	i := sort.SearchFloat64s(w.T, t)
	// w.T[i-1] < t <= w.T[i]
	//lint:ignore floateq exact hit on a stored breakpoint located by SearchFloat64s
	if w.T[i] == t {
		return w.V[i]
	}
	t0, t1 := w.T[i-1], w.T[i]
	v0, v1 := w.V[i-1], w.V[i]
	frac := (t - t0) / (t1 - t0)
	return v0 + frac*(v1-v0)
}

// Begin returns the first breakpoint time.
func (w *PWL) Begin() float64 { return w.T[0] }

// End returns the last breakpoint time.
func (w *PWL) End() float64 { return w.T[len(w.T)-1] }

// Len returns the number of breakpoints.
func (w *PWL) Len() int { return len(w.T) }

// Clone returns a deep copy.
func (w *PWL) Clone() *PWL {
	return &PWL{T: append([]float64(nil), w.T...), V: append([]float64(nil), w.V...)}
}

// Sample evaluates the waveform at n uniformly spaced points spanning
// [t0, t1] inclusive and returns the times and values.
func (w *PWL) Sample(t0, t1 float64, n int) (ts, vs []float64) {
	if n < 2 {
		return []float64{t0}, []float64{w.Eval(t0)}
	}
	ts = make([]float64, n)
	vs = make([]float64, n)
	dt := (t1 - t0) / float64(n-1)
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*dt
		ts[i] = t
		vs[i] = w.Eval(t)
	}
	return
}

// Integral returns ∫ w dt over [t0, t1] computed exactly (the waveform
// is piecewise linear, so each segment contributes a trapezoid).
func (w *PWL) Integral(t0, t1 float64) float64 {
	if t1 < t0 {
		return -w.Integral(t1, t0)
	}
	// Collect breakpoints strictly inside (t0, t1).
	s := 0.0
	prevT, prevV := t0, w.Eval(t0)
	for i := 0; i < len(w.T); i++ {
		t := w.T[i]
		if t <= t0 {
			continue
		}
		if t >= t1 {
			break
		}
		v := w.V[i]
		s += 0.5 * (v + prevV) * (t - prevT)
		prevT, prevV = t, v
	}
	endV := w.Eval(t1)
	s += 0.5 * (endV + prevV) * (t1 - prevT)
	return s
}

// combine merges the breakpoints of a and b and applies op pointwise.
// The result is exact for operations that preserve piecewise linearity
// (addition, subtraction, scaling) and a breakpoint-dense approximation
// otherwise.
func combine(a, b *PWL, op func(x, y float64) float64) *PWL {
	ts := mergeTimes(a.T, b.T)
	vs := make([]float64, len(ts))
	for i, t := range ts {
		vs[i] = op(a.Eval(t), b.Eval(t))
	}
	return &PWL{T: ts, V: vs}
}

func mergeTimes(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = appendUnique(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = appendUnique(out, b[j])
			j++
		default: // equal
			out = appendUnique(out, a[i])
			i++
			j++
		}
	}
	return out
}

func appendUnique(s []float64, t float64) []float64 {
	//lint:ignore floateq deduplicates bitwise-identical merged breakpoints only
	if len(s) > 0 && s[len(s)-1] == t {
		return s
	}
	return append(s, t)
}

// Add returns a+b (exact).
func Add(a, b *PWL) *PWL { return combine(a, b, func(x, y float64) float64 { return x + y }) }

// Sub returns a-b (exact).
func Sub(a, b *PWL) *PWL { return combine(a, b, func(x, y float64) float64 { return x - y }) }

// Mul returns the pointwise product sampled at merged breakpoints. The
// product of two PWLs is quadratic per segment, so this is approximate;
// it is only used for diagnostics, never inside the solvers.
func Mul(a, b *PWL) *PWL { return combine(a, b, func(x, y float64) float64 { return x * y }) }

// Scale returns w scaled by k (exact).
func (w *PWL) Scale(k float64) *PWL {
	out := w.Clone()
	for i := range out.V {
		out.V[i] *= k
	}
	return out
}

// Shift returns w translated in time by dt (exact).
func (w *PWL) Shift(dt float64) *PWL {
	out := w.Clone()
	for i := range out.T {
		out.T[i] += dt
	}
	return out
}

// Min and Max return the extreme breakpoint values; since the waveform
// is piecewise linear, extremes occur at breakpoints.
func (w *PWL) Min() float64 {
	m := math.Inf(1)
	for _, v := range w.V {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest breakpoint value.
func (w *PWL) Max() float64 {
	m := math.Inf(-1)
	for _, v := range w.V {
		if v > m {
			m = v
		}
	}
	return m
}

// Resample returns a PWL with breakpoints exactly at the n uniform
// sample points over [t0, t1]. Useful for compacting waveforms with
// many redundant breakpoints before hand-off.
func (w *PWL) Resample(t0, t1 float64, n int) *PWL {
	ts, vs := w.Sample(t0, t1, n)
	return &PWL{T: ts, V: vs}
}

// Crossings returns the times at which the waveform crosses the given
// level, found exactly per linear segment (rising and falling).
func (w *PWL) Crossings(level float64) []float64 {
	var out []float64
	for i := 1; i < len(w.T); i++ {
		v0, v1 := w.V[i-1]-level, w.V[i]-level
		if v0 == 0 {
			out = append(out, w.T[i-1])
			continue
		}
		if v0*v1 < 0 {
			frac := v0 / (v0 - v1)
			out = append(out, w.T[i-1]+frac*(w.T[i]-w.T[i-1]))
		}
	}
	//lint:ignore floateq an exact endpoint touch is a crossing by definition; nearby values are caught by the sign test
	if len(w.V) > 0 && w.V[len(w.V)-1] == level {
		out = append(out, w.T[len(w.T)-1])
	}
	return out
}

// String renders a short summary.
func (w *PWL) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PWL[%d pts, t=%g..%g, v=%g..%g]", len(w.T), w.Begin(), w.End(), w.Min(), w.Max())
	return b.String()
}

// Step builds a piecewise-constant waveform (expressed in PWL form with
// near-vertical edges of the given rise time) that takes values vals[i]
// on [times[i], times[i+1]). len(vals) == len(times); the final value
// holds forever.
func Step(times, vals []float64, rise float64) (*PWL, error) {
	if len(times) != len(vals) || len(times) == 0 {
		return nil, errors.New("waveform: Step needs equal non-empty times/vals")
	}
	var t, v []float64
	for i := range times {
		if i == 0 {
			t = append(t, times[0])
			v = append(v, vals[0])
			continue
		}
		edge := times[i]
		t = append(t, edge, edge+rise)
		v = append(v, vals[i-1], vals[i])
	}
	return New(t, v)
}
