// Package dram models the 1T1C DRAM cell retention mechanism and the
// Variable Retention Time (VRT) phenomenon the paper attributes to RTN
// (future work #4, refs [22], [23]): a single oxide trap in the access
// transistor toggles its threshold voltage between two levels, which
// modulates the subthreshold leakage exponentially — so the cell's
// retention time switches randomly between two *discrete* values as the
// trap captures and emits.
package dram

import (
	"errors"
	"fmt"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/trap"
	"samurai/internal/units"
	"samurai/internal/waveform"
)

// CellConfig describes the 1T1C cell. DRAM access transistors use a
// much thicker gate oxide than logic (higher wordline boost voltages),
// which is also what gives their traps the second-to-minute time
// constants behind measured VRT.
type CellConfig struct {
	// Access transistor geometry and threshold.
	W, L, Tox, Vt float64
	// Mu is the channel mobility.
	Mu float64
	// CStorage is the storage capacitor, F.
	CStorage float64
	// VStore is the written "1" level and VTrip the sense threshold.
	VStore, VTrip float64
	// TempK is the temperature.
	TempK float64
}

// DefaultCellConfig returns a representative trench-DRAM cell: 5 nm
// oxide, 25 fF storage, 1.2 V stored level sensed at half. Vt is the
// *effective* off-state threshold — the drawn Vt minus the wordline
// standby level — chosen so the worst-case retention lands in the
// millisecond range, as in real parts.
func DefaultCellConfig() CellConfig {
	return CellConfig{
		W: 90e-9, L: 90e-9,
		Tox: 5e-9, Vt: 0.35,
		Mu:       350e-4,
		CStorage: 25e-15,
		VStore:   1.2, VTrip: 0.6,
		TempK: units.RoomTemperature,
	}
}

// Validate checks the configuration.
func (c CellConfig) Validate() error {
	switch {
	case c.W <= 0 || c.L <= 0 || c.Tox <= 0:
		return fmt.Errorf("dram: non-positive geometry")
	case c.CStorage <= 0:
		return fmt.Errorf("dram: non-positive storage capacitance")
	case !(0 < c.VTrip && c.VTrip < c.VStore):
		return fmt.Errorf("dram: need 0 < VTrip < VStore")
	case c.Mu <= 0 || c.TempK <= 0:
		return fmt.Errorf("dram: non-positive mobility or temperature")
	}
	return nil
}

// accessParams builds the off-state access device.
func (c CellConfig) accessParams(vtShift float64) device.MOSParams {
	return device.MOSParams{
		Type:    device.NMOS,
		W:       c.W,
		L:       c.L,
		Vt:      c.Vt + vtShift,
		Mu:      c.Mu,
		CoxArea: units.SiO2Permittivity / c.Tox,
		Lambda:  0.1,
		SlopeN:  1.5,
		TempK:   c.TempK,
	}
}

// LeakageCurrent returns the access transistor's off-state (V_gs = 0)
// subthreshold current at storage-node voltage v, with the given
// trapped-charge threshold shift.
func (c CellConfig) LeakageCurrent(v, vtShift float64) float64 {
	dev := c.accessParams(vtShift)
	// Wordline low, bitline low, storage node at v: vgs = 0, vds = v.
	return dev.Eval(0, v).Ids
}

// RetentionTime integrates the storage-node decay from VStore to VTrip
// under the off-state leakage: t = ∫ C/I(V) dV. The integral is
// evaluated with composite Simpson quadrature on a uniform V grid.
func (c CellConfig) RetentionTime(vtShift float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	const n = 400 // even
	h := (c.VStore - c.VTrip) / n
	f := func(v float64) (float64, error) {
		i := c.LeakageCurrent(v, vtShift)
		if i <= 0 {
			return 0, errors.New("dram: non-positive leakage (cell never discharges)")
		}
		return c.CStorage / i, nil
	}
	sum := 0.0
	for k := 0; k <= n; k++ {
		v := c.VTrip + float64(k)*h
		w := 2.0
		switch {
		case k == 0 || k == n:
			w = 1
		case k%2 == 1:
			w = 4
		}
		fi, err := f(v)
		if err != nil {
			return 0, err
		}
		sum += w * fi
	}
	return sum * h / 3, nil
}

// DeltaVtPerTrap returns the threshold shift of one trapped electron in
// the access device.
func (c CellConfig) DeltaVtPerTrap() float64 {
	return rtn.DeltaVt(c.accessParams(0))
}

// VRTEpoch records one retention measurement epoch.
type VRTEpoch struct {
	Start float64
	// TrapFilled is the trap state during the epoch (majority).
	TrapFilled bool
	// Retention is the measured retention time, s.
	Retention float64
}

// VRTResult is the variable-retention-time simulation outcome.
type VRTResult struct {
	// TEmpty and TFilled are the two discrete retention levels.
	TEmpty, TFilled float64
	// Epochs are the per-measurement records.
	Epochs []VRTEpoch
	// FractionFilled is the fraction of epochs in the slow (filled)
	// state.
	FractionFilled float64
	// Transitions counts trap state changes over the horizon.
	Transitions int
}

// SimulateVRT runs the VRT mechanism: a single oxide trap in the access
// transistor follows its (slow) two-state chain; retention is measured
// once per epoch, and takes one of two discrete values according to the
// trap state. epochs sets how many measurements to take; the horizon is
// sized so the trap is expected to toggle many times.
func SimulateVRT(cfg CellConfig, tr trap.Trap, ctx trap.Context, epochs int, r *rng.Stream) (*VRTResult, error) {
	if epochs < 2 {
		return nil, errors.New("dram: need at least 2 epochs")
	}
	dVt := cfg.DeltaVtPerTrap()
	tEmpty, err := cfg.RetentionTime(0)
	if err != nil {
		return nil, err
	}
	tFilled, err := cfg.RetentionTime(dVt)
	if err != nil {
		return nil, err
	}
	// Horizon: ~20 expected dwell periods.
	ls := ctx.RateSum(tr)
	if ls <= 0 {
		return nil, errors.New("dram: degenerate trap rates")
	}
	horizon := 20 / ls * float64(1)
	if horizon <= 0 {
		return nil, errors.New("dram: empty horizon")
	}
	// The trap's gate sees the (low) wordline during retention.
	path, err := markov.Uniformise(ctx, tr, waveform.Constant(0), 0, horizon, r)
	if err != nil {
		return nil, err
	}
	res := &VRTResult{TEmpty: tEmpty, TFilled: tFilled, Transitions: path.Transitions()}
	filledCount := 0
	for k := 0; k < epochs; k++ {
		t := horizon * (float64(k) + 0.5) / float64(epochs)
		filled := path.StateAt(t)
		ret := tEmpty
		if filled {
			ret = tFilled
			filledCount++
		}
		res.Epochs = append(res.Epochs, VRTEpoch{Start: t, TrapFilled: filled, Retention: ret})
	}
	res.FractionFilled = float64(filledCount) / float64(epochs)
	return res, nil
}

// LevelRatio returns T_filled / T_empty — the discrete VRT jump. A
// filled trap raises Vt, suppressing the leakage exponentially, so the
// ratio exceeds 1.
func (r *VRTResult) LevelRatio() float64 {
	if r.TEmpty == 0 {
		return 0
	}
	return r.TFilled / r.TEmpty
}
