package samurai

import (
	"context"

	"samurai/internal/circuit"
	"samurai/internal/montecarlo"
	"samurai/internal/sram"
)

// ArrayRunnerCtx adapts the full methodology (RunCtx) as the per-cell
// worker for montecarlo.RunArrayCtx. A scale of 0 simulates the cell
// without RTN (variation-only reference); otherwise the RTN pass runs
// with the given amplitude scale. Cancelling ctx aborts the in-flight
// cell between circuit integration steps; it never perturbs the result
// of a cell that completes.
func ArrayRunnerCtx() montecarlo.CtxRunner {
	return func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale float64, seed uint64) (errors, slow, traps int, err error) {
		cfg := Config{
			Tech:    cell.Tech,
			Cell:    cell,
			Pattern: pattern,
			Seed:    seed,
			Scale:   scale,
		}
		if scale == 0 {
			// Clean-only evaluation: variation can by itself break the
			// write; the RTN machinery is skipped entirely.
			wl, bl, blb, werr := pattern.Waveforms()
			if werr != nil {
				return 0, 0, 0, werr
			}
			c, berr := sram.Build(cell, wl, bl, blb)
			if berr != nil {
				return 0, 0, 0, berr
			}
			run, eerr := c.EvaluateOpts(pattern, 0, circuit.Options{Ctx: ctx})
			if eerr != nil {
				return 0, 0, 0, eerr
			}
			return run.NumError, run.NumSlow, 0, nil
		}
		res, rerr := RunCtx(ctx, cfg)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		total := 0
		for _, p := range res.Profiles {
			total += len(p.Traps)
		}
		return res.WithRTN.NumError, res.WithRTN.NumSlow, total, nil
	}
}

// RareArrayRunnerCtx adapts the methodology as the tilted per-cell
// worker for importance-sampled array sweeps
// (montecarlo.ArrayOptions.RareEvent): the cell runs with
// Config.TiltEV set and reports, alongside the usual counts, the
// exact log-likelihood ratio of its trap paths and the glitch-depth
// level value of its Q waveform. At tiltEV == 0 the run takes the
// same code path as ArrayRunnerCtx (the kernel's untilted loops), so
// counts and outcomes are bit-identical to the naive sweep and the
// log-LR is exactly 0.
func RareArrayRunnerCtx() montecarlo.RareCtxRunner {
	return func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale, tiltEV float64, seed uint64) (errors, slow, traps int, logLR, glitch float64, err error) {
		cfg := Config{
			Tech:    cell.Tech,
			Cell:    cell,
			Pattern: pattern,
			Seed:    seed,
			Scale:   scale,
			TiltEV:  tiltEV,
		}
		res, rerr := RunCtx(ctx, cfg)
		if rerr != nil {
			return 0, 0, 0, 0, 0, rerr
		}
		total := 0
		for _, p := range res.Profiles {
			total += len(p.Traps)
		}
		return res.WithRTN.NumError, res.WithRTN.NumSlow, total, res.LogLR, res.GlitchDepth, nil
	}
}

// ArrayRunner is ArrayRunnerCtx without cancellation — the per-cell
// worker for the plain montecarlo.RunArray.
func ArrayRunner() montecarlo.Runner {
	run := ArrayRunnerCtx()
	return func(cell sram.CellConfig, pattern sram.Pattern, scale float64, seed uint64) (errors, slow, traps int, err error) {
		return run(context.Background(), cell, pattern, scale, seed)
	}
}
