package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samurai"
	"samurai/internal/experiments"
	"samurai/internal/fabric"
	"samurai/internal/jobd"
	"samurai/internal/montecarlo"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/rng"
	"samurai/internal/sram"
)

// Workload parameters. BENCHMARK.json repeats them in each workload's
// one-line reason; LAYERS.md says which layer each workload stresses.
const (
	// array-service: one naive full-methodology array job at a time,
	// over loopback HTTP to an in-process jobd scheduler.
	arrayCells       = 48
	arrayHistoryJobs = 40

	// rare-fabric: one tilted rare_array job at a time through an
	// in-process fabric coordinator and two single-threaded workers
	// holding many small leases.
	rareCells       = 48
	rareTiltEV      = -0.02
	rareWorkers     = 2
	rareLeaseCells  = 1
	rarePoll        = 5 * time.Millisecond
	rareHistoryJobs = 20

	// spectra: one Fig 3 panel at a time, single-threaded, no service:
	// the paper's 25 device instances per node, a shorter trace.
	spectraDevices = 25
	spectraSamples = 1 << 16
	spectraWindow  = 1e-3
	// spectraCheckedRows bounds the device rows recomputed per panel.
	spectraCheckedRows = 4

	// job-churn: one closed-loop client submitting tiny clean-only
	// array jobs (1-bit pattern) to in-process jobd: one cell, or two
	// for every fourth spec. A 50/50 mix would put the median latency
	// in the gap between the two modes, where it jumps run to run.
	churnSpecs       = 64
	churnPattern     = "1"
	churnHistoryJobs = 2000
	// churnTracedJobs caps the span trees fetched after a traced window.
	churnTracedJobs = 400
)

// setupSeed seeds the probe every set-up ends with (the warm-up job, the
// one-device panel). It is the same on every workload seed, so setup_s
// measures the restart rather than the probe's own trap draw.
const setupSeed = 1

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64, dir string, traced bool) (workload, error){
	"array-service": newArrayService,
	"rare-fabric":   newRareFabric,
	"spectra":       newSpectra,
	"job-churn":     newJobChurn,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// opSeed derives the seed of operation i from the workload seed.
func opSeed(seed uint64, i int) uint64 {
	var s rng.Stream
	rng.New(seed).SplitInto(uint64(i)+1, &s)
	return s.Uint64()
}

// simThreads is the cell parallelism: two workers, never more than the
// machine's CPUs.
func simThreads() int {
	return min(2, runtime.NumCPU())
}

// writeHistory pre-populates a WAL with finished jobs, so that opening
// it at set-up replays and compacts a real history. The records are
// synthetic but well formed (they are never recomputed) and are written
// in the compacted form samuraid leaves behind, in one fsynced snapshot.
func writeHistory(path string, seed uint64, jobs, cells int, typ string) error {
	store, _, _, err := jobd.Open(path)
	if err != nil {
		return err
	}
	r := rng.New(seed ^ 0x5eed)
	hist := make([]*jobd.Job, 0, jobs)
	for j := 1; j <= jobs; j++ {
		spec := jobd.Spec{Type: typ, Seed: r.Uint64(), Cells: cells}
		if typ == jobd.TypeRareArray {
			spec.TiltEV = rareTiltEV
		}
		job := &jobd.Job{ID: fmt.Sprintf("job-%06d", j), Seq: uint64(j), Spec: spec.Normalized(),
			State: jobd.StateDone, CellsTotal: cells}
		sum := jobd.Summary{}
		for i := 0; i < cells; i++ {
			rec := jobd.CellRecord{Index: i, TrapCount: int(r.Uint64() % 40), VtShift: map[string]float64{}}
			for _, m := range []string{"M1", "M2", "M3", "M4", "M5", "M6"} {
				rec.VtShift[m] = r.NormMeanStd(0, 0.02)
			}
			if typ == jobd.TypeRareArray {
				rec.LogLR = r.NormMeanStd(0, 0.5)
			}
			rec.Failed = r.Uint64()%16 == 0
			if rec.Failed {
				rec.Errors, sum.NumFailed = 1, sum.NumFailed+1
			}
			job.PutCell(rec)
		}
		sum.ErrorRate = float64(sum.NumFailed) / float64(cells)
		job.Result = &sum
		hist = append(hist, job)
	}
	if err := store.Compact(hist); err != nil {
		_ = store.Close() // the compaction error is the one to report
		return err
	}
	return store.Close()
}

// serviceBench is the part of a workload shared by the three service
// workloads: the pre-populated WAL, the set-up/teardown cycle and the
// record of every job run.
type serviceBench struct {
	seed    uint64
	dir     string
	history string
	cfg     daemonConfig
	// warmup is the job every set-up ends with: the first request and
	// whatever lazy initialisation the first cell triggers.
	warmup jobd.Spec
	setups int
	d      *daemon
	// replays holds the WAL open+replay+compact time of every set-up.
	replays []time.Duration

	mu   sync.Mutex
	runs map[int]jobRun
	// walSize and walRecords are read when tracing switches on.
	walSize    int64
	walRecords int
}

func (s *serviceBench) Prepare() error {
	s.setups++
	s.cfg.walPath = filepath.Join(s.dir, fmt.Sprintf("wal-%d.jsonl", s.setups))
	return copyFile(s.cfg.walPath, s.history)
}

func (s *serviceBench) Teardown() error {
	if s.d == nil {
		return nil
	}
	err := s.d.stop()
	s.d = nil
	return err
}

func (s *serviceBench) record(i int, jr jobRun) {
	s.mu.Lock()
	s.runs[i] = jr
	s.mu.Unlock()
}

func (s *serviceBench) run(i int) jobRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[i]
}

// enableService switches the route timers on and notes the WAL size.
func (s *serviceBench) enableService() {
	var err error
	if s.walSize, s.walRecords, err = walStats(s.cfg.walPath); err != nil {
		fmt.Println("# perfbench: WAL stats:", err)
	}
	if s.cfg.server != nil {
		s.cfg.server.on.Store(true)
	}
	if s.cfg.client != nil {
		s.cfg.client.on.Store(true)
	}
}

// addServiceMetrics records the job-service per-layer metrics of the
// traced operations: route times, queue wait, WAL growth, replay time
// and the job latency distribution.
func (s *serviceBench) addServiceMetrics(m map[string]metric, ops []int, walls []time.Duration) {
	cells := 0
	var wait time.Duration
	waits := 0
	for _, i := range ops {
		jr := s.run(i)
		cells += len(jr.result.Cells)
		if !jr.running.IsZero() {
			wait += jr.running.Sub(jr.submitted)
			waits++
		}
	}
	if size, records, err := walStats(s.cfg.walPath); err == nil {
		set(m, "jobd.wal_records_per_job", float64(records-s.walRecords)/float64(len(ops)))
		set(m, "jobd.wal_bytes_per_cell", ratio(float64(size-s.walSize), float64(cells)))
	}
	for _, r := range []string{"submit", "status", "result", "events"} {
		set(m, "jobd.http_s."+r, s.cfg.server.mean(r))
	}
	set(m, "jobd.queue_wait_s", ratio(wait.Seconds(), float64(waits)))
	set(m, "jobd.replay_s", median(s.replays).Seconds())
	lat := make([]float64, len(walls))
	for k, w := range walls {
		lat[k] = w.Seconds()
	}
	set(m, "jobd.jobs_per_s", float64(len(ops))/sum(walls).Seconds())
	if pct, v, ok := tail(lat); ok {
		set(m, "jobd.job_latency_tail_s", v)
		set(m, "jobd.job_latency_tail_pct", pct)
	}
}

// serviceWall sums the server-side time of the routes on an
// operation's critical path (submit, status polls, result fetch).
func (s *serviceBench) serviceWall() time.Duration {
	var total time.Duration
	for _, r := range []string{"submit", "status", "result"} {
		d, _ := s.cfg.server.total(r)
		total += d
	}
	return total
}

// queueWait sums the submit-to-running wait of the given operations.
func (s *serviceBench) queueWait(ops []int) time.Duration {
	var total time.Duration
	for _, i := range ops {
		if jr := s.run(i); !jr.running.IsZero() {
			total += jr.running.Sub(jr.submitted)
		}
	}
	return total
}

// ---------------------------------------------------------------------
// array-service

type arrayService struct {
	serviceBench
}

func newArrayService(seed uint64, dir string, traced bool) (workload, error) {
	w := &arrayService{serviceBench{
		seed: seed, dir: dir, runs: map[int]jobRun{},
		history: filepath.Join(dir, "history.jsonl"),
		cfg:     daemonConfig{jobWorkers: simThreads()},
		warmup:  jobd.Spec{Type: jobd.TypeArray, Seed: setupSeed, Cells: 1, Workers: 1},
	}}
	if traced {
		w.cfg.server = newRouteTimer()
	}
	return w, writeHistory(w.history, seed, arrayHistoryJobs, arrayCells, jobd.TypeArray)
}

func (w *arrayService) spec(i int) jobd.Spec {
	return jobd.Spec{Type: jobd.TypeArray, Seed: opSeed(w.seed, i), Cells: arrayCells, Workers: simThreads()}
}

func (w *arrayService) Setup(ctx context.Context) error {
	d, err := startDaemon(w.cfg)
	if err != nil {
		return err
	}
	w.d = d
	w.replays = append(w.replays, d.replay)
	if jr := d.runJob(ctx, w.warmup); jr.failure != "" {
		return fmt.Errorf("warm-up job: %s", jr.failure)
	}
	return nil
}

func (w *arrayService) Op(ctx context.Context, i int) opResult {
	jr := w.d.runJob(ctx, w.spec(i))
	w.record(i, jr)
	return opResult{units: len(jr.result.Cells), failure: jr.failure}
}

func (w *arrayService) GCPerOp() bool { return true }

// Verify checks every job's records against its summary and recomputes
// one seeded cell per job in process.
func (w *arrayService) Verify(ctx context.Context, ops []int) map[int]string {
	return verifyArrayJobs(ctx, w.seed, ops, w.run)
}

func verifyArrayJobs(ctx context.Context, seed uint64, ops []int, run func(int) jobRun) map[int]string {
	bad := map[int]string{}
	for _, i := range ops {
		jr := run(i)
		if jr.failure != "" {
			continue // already counted by the timed window
		}
		if err := checkArrayResult(jr.spec, jr.result); err != nil {
			bad[i] = err.Error()
			continue
		}
		cell := int(opSeed(seed^0xce11, i) % uint64(jr.spec.Cells))
		if err := checkCell(ctx, jr.spec, jr.result, cell); err != nil {
			bad[i] = err.Error()
		}
	}
	return bad
}

func (w *arrayService) Tracer() layerTracer { return (*arrayTracer)(w) }

type arrayTracer arrayService

func (t *arrayTracer) Enable() { t.enableService() }

// Finish folds the span tree of every traced job: self time per layer,
// cell durations and the runner's busy fraction.
func (t *arrayTracer) Finish(ctx context.Context, ops []int, walls []time.Duration, m map[string]metric) {
	self, simWall, cells, busy := foldJobTraces(ctx, t.d, ops, t.run)
	addSelfTimes(m, self, len(ops), simWall, t.serviceWall()+t.queueWait(ops), sum(walls))
	addCellTimes(m, cells)
	set(m, "montecarlo.busy_frac", ratio(busy.Seconds(), float64(simThreads())*simWall.Seconds()))
	t.addServiceMetrics(m, ops, walls)
}

// foldJobTraces fetches and folds the span trees of the given jobs. It
// returns the summed self time per layer, the summed wall of the
// simulation trees, every cell duration and the summed cell time.
func foldJobTraces(ctx context.Context, d *daemon, ops []int, run func(int) jobRun) (map[string]time.Duration, time.Duration, []float64, time.Duration) {
	self := map[string]time.Duration{}
	var simWall, busy time.Duration
	var cells []float64
	for _, i := range ops {
		jr := run(i)
		if jr.id == "" {
			continue
		}
		spans, err := d.fetchTrace(ctx, jr.id)
		if err != nil {
			fmt.Println("# perfbench: trace:", err)
			continue
		}
		s, wall := selfTimes(spans)
		for k, v := range s {
			self[k] += v
		}
		simWall += wall
		for _, sp := range spans {
			if strings.HasSuffix(sp.Path, "/cell") {
				cells = append(cells, sp.Dur.Seconds())
				busy += sp.Dur
			}
		}
	}
	return self, simWall, cells, busy
}

// ---------------------------------------------------------------------
// rare-fabric

type rareFabric struct {
	serviceBench
	acks *ackTracker
	// tap instruments the workers' cell runner in traced runs.
	tap *runnerTap
}

func newRareFabric(seed uint64, dir string, traced bool) (workload, error) {
	w := &rareFabric{
		serviceBench: serviceBench{
			seed: seed, dir: dir, runs: map[int]jobRun{},
			history: filepath.Join(dir, "history.jsonl"),
			warmup: jobd.Spec{Type: jobd.TypeRareArray, Seed: setupSeed,
				Cells: rareWorkers * rareLeaseCells, TiltEV: rareTiltEV},
		},
	}
	workers := min(rareWorkers, runtime.NumCPU())
	w.cfg = daemonConfig{
		coordinator: true,
		lease:       fabric.Options{LeaseCells: rareLeaseCells},
		workers:     workers,
		worker:      fabric.WorkerOptions{Threads: 1, Poll: rarePoll},
	}
	if traced {
		w.tap = newRunnerTap(workers)
		w.cfg.server, w.cfg.client = newRouteTimer(), newRouteTimer()
		w.cfg.rareRunner = w.tap.runner
	}
	return w, writeHistory(w.history, seed, rareHistoryJobs, rareCells, jobd.TypeRareArray)
}

func (w *rareFabric) spec(i int) jobd.Spec {
	return jobd.Spec{Type: jobd.TypeRareArray, Seed: opSeed(w.seed, i), Cells: rareCells, TiltEV: rareTiltEV}
}

// Setup opens the WAL, starts the coordinator and the workers, and runs
// a warm-up job large enough that every worker registers and takes its
// first lease. Each instance gets its own acknowledgement tracker: job
// ids restart from the same history on every set-up.
func (w *rareFabric) Setup(ctx context.Context) error {
	w.acks = newAckTracker()
	w.cfg.worker.OnCheckpoint = w.acks.ack
	d, err := startDaemon(w.cfg)
	if err != nil {
		return err
	}
	w.d = d
	w.replays = append(w.replays, d.replay)
	if jr := d.runFabricJob(ctx, w.acks, w.warmup); jr.failure != "" {
		return fmt.Errorf("warm-up job: %s", jr.failure)
	}
	return nil
}

func (w *rareFabric) Op(ctx context.Context, i int) opResult {
	if w.tap != nil {
		w.tap.startJob()
	}
	before := fabricRetries()
	jr := w.d.runFabricJob(ctx, w.acks, w.spec(i))
	if n := fabricRetries() - before; n > 0 && jr.failure == "" {
		jr.failure = fmt.Sprintf("%d cells re-leased or requests retried", n)
	}
	w.record(i, jr)
	return opResult{units: len(jr.result.Cells), failure: jr.failure}
}

// retryCounters count re-executed fabric work: stolen leases, duplicate
// checkpoints and retried worker requests.
var retryCounters = []*obs.Counter{
	obs.GetCounter("samurai_fabric_steals_total", ""),
	obs.GetCounter("samurai_fabric_duplicate_checkpoints_total", ""),
	obs.GetCounter("samurai_fabricw_post_retries_total", ""),
}

func fabricRetries() int64 {
	var n int64
	for _, c := range retryCounters {
		n += c.Value()
	}
	return n
}

func (w *rareFabric) GCPerOp() bool { return true }

// Verify checks every job's records against the coordinator's summary
// (the rareevent aggregate included) and recomputes one seeded cell per
// job in process.
func (w *rareFabric) Verify(ctx context.Context, ops []int) map[int]string {
	return verifyArrayJobs(ctx, w.seed, ops, w.run)
}

func (w *rareFabric) Tracer() layerTracer { return (*rareTracer)(w) }

type rareTracer rareFabric

func (t *rareTracer) Enable() {
	t.enableService()
	t.tap.on.Store(true)
}

// Finish folds the span trees the runner tap recorded (one per job),
// the lease protocol's round trips and the estimator's ESS.
func (t *rareTracer) Finish(ctx context.Context, ops []int, walls []time.Duration, m map[string]metric) {
	self := map[string]time.Duration{}
	var simWall, simSpan time.Duration
	for _, tr := range t.tap.tracers() {
		spans := snapshotSpans(tr)
		s, wall := selfTimes(spans)
		for k, v := range s {
			self[k] += v
		}
		simWall += wall
		simSpan += extent(spans)
	}
	opWall := sum(walls)
	addSelfTimes(m, self, len(ops), simWall, t.serviceWall(), opWall)
	addCellTimes(m, t.tap.cellTimes())
	busy, workers := t.tap.busy().Seconds(), float64(t.tap.workers)
	set(m, "montecarlo.busy_frac", ratio(busy, workers*simSpan.Seconds()))
	set(m, "fabric.worker_idle_frac", 1-ratio(busy, workers*opWall.Seconds()))
	client := t.cfg.client
	set(m, "fabric.lease_rtt_s", client.mean("lease"))
	set(m, "fabric.checkpoint_rtt_s", client.mean("checkpoint"))
	set(m, "fabric.http_s.lease", t.cfg.server.mean("lease"))
	set(m, "fabric.http_s.checkpoint", t.cfg.server.mean("checkpoint"))
	_, batches := t.cfg.server.total("checkpoint")
	cells, ess := 0, 0.0
	for _, i := range ops {
		jr := t.run(i)
		cells += len(jr.result.Cells)
		if s := jr.result.Summary; s != nil && s.Rare != nil {
			ess += s.Rare.ESS
		}
	}
	set(m, "fabric.cells_per_batch", ratio(float64(cells), float64(batches)))
	set(m, "rareevent.ess_per_cell", ratio(ess, float64(cells)))
	set(m, "rareevent.ess_per_s", ess/opWall.Seconds())
	t.addServiceMetrics(m, ops, walls)
	// The coordinator has no event stream; queue wait is the time to
	// the first cell a worker started.
	set(m, "jobd.queue_wait_s", t.tap.meanStartDelay(ops, t.run))
}

// runnerTap wraps the fabric workers' rare-cell runner: while on, each
// cell runs under a benchmark-owned tracer (one per job, so the span
// tree samurai.run → clean/traps/rtn → circuit/markov is recorded) and
// its duration and worker are noted.
type runnerTap struct {
	on      atomic.Bool
	workers int

	mu        sync.Mutex
	cur       *trace.Tracer
	all       []*trace.Tracer
	cells     []float64
	busyByW   []time.Duration
	firstCell map[*trace.Tracer]time.Time
}

func newRunnerTap(workers int) *runnerTap {
	return &runnerTap{workers: workers, busyByW: make([]time.Duration, workers), firstCell: map[*trace.Tracer]time.Time{}}
}

// startJob gives the next job its own tracer.
func (t *runnerTap) startJob() {
	if !t.on.Load() {
		return
	}
	tr := trace.New(uint64(len(t.all)+1), trace.Options{})
	t.mu.Lock()
	t.cur = tr
	t.all = append(t.all, tr)
	t.mu.Unlock()
}

func (t *runnerTap) runner(worker int) montecarlo.RareCtxRunner {
	base := samurai.RareArrayRunnerCtx()
	return func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale, tiltEV float64, seed uint64) (int, int, int, float64, float64, error) {
		if !t.on.Load() {
			return base(ctx, cell, pattern, scale, tiltEV, seed)
		}
		t.mu.Lock()
		tr := t.cur
		start := time.Now()
		if _, ok := t.firstCell[tr]; !ok && tr != nil {
			t.firstCell[tr] = start
		}
		t.mu.Unlock()
		cctx, sp := trace.StartInst(trace.NewContext(ctx, tr), "cell", seed)
		nerr, slow, traps, logLR, glitch, err := base(cctx, cell, pattern, scale, tiltEV, seed)
		sp.End()
		d := time.Since(start)
		t.mu.Lock()
		t.cells = append(t.cells, d.Seconds())
		t.busyByW[worker] += d
		t.mu.Unlock()
		return nerr, slow, traps, logLR, glitch, err
	}
}

func (t *runnerTap) tracers() []*trace.Tracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*trace.Tracer(nil), t.all...)
}

func (t *runnerTap) cellTimes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.cells...)
}

func (t *runnerTap) busy() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b time.Duration
	for _, d := range t.busyByW {
		b += d
	}
	return b
}

// meanStartDelay is the mean time from a job's submit response to the
// first cell a worker started on it.
func (t *runnerTap) meanStartDelay(ops []int, run func(int) jobRun) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	n := 0
	for k, i := range ops {
		if k >= len(t.all) {
			break
		}
		first, ok := t.firstCell[t.all[k]]
		if jr := run(i); ok && !jr.submitted.IsZero() && first.After(jr.submitted) {
			total += first.Sub(jr.submitted)
			n++
		}
	}
	return ratio(total.Seconds(), float64(n))
}

// snapshotSpans converts a tracer's records into fold input.
func snapshotSpans(tr *trace.Tracer) []span {
	recs := tr.Snapshot()
	out := make([]span, len(recs))
	for k, r := range recs {
		out[k] = span{ID: r.ID, Parent: r.Parent, Path: r.Path, Start: r.Start, Dur: r.Dur}
	}
	return out
}

// ---------------------------------------------------------------------
// spectra

type spectra struct {
	seed    uint64
	results map[int]*experiments.Fig3Result
}

func newSpectra(seed uint64, _ string, _ bool) (workload, error) {
	return &spectra{seed: seed, results: map[int]*experiments.Fig3Result{}}, nil
}

func (w *spectra) config(i int) experiments.Fig3Config {
	return experiments.Fig3Config{Seed: opSeed(w.seed, i), Devices: spectraDevices,
		Samples: spectraSamples, Window: spectraWindow}
}

func (w *spectra) Prepare() error  { return nil }
func (w *spectra) Teardown() error { return nil }

// Setup computes a one-device panel: the process-wide lazy
// initialisation (technology tables, trap profilers, FFT sizes) and a
// first pass through every layer of the figure.
func (w *spectra) Setup(ctx context.Context) error {
	cfg := w.config(0)
	cfg.Seed, cfg.Devices = setupSeed, 1
	_, err := experiments.Fig3(cfg)
	return err
}

func (w *spectra) Op(ctx context.Context, i int) opResult {
	res, err := experiments.Fig3(w.config(i))
	if err != nil {
		return opResult{failure: err.Error()}
	}
	w.results[i] = res
	return opResult{units: len(res.Old.Devices) + len(res.New.Devices)}
}

func (w *spectra) GCPerOp() bool { return true }

// Verify asserts the panel properties and recomputes the first k+1
// device rows of both technologies, k < spectraCheckedRows seeded per
// panel: each device draws from its own stream, so a shorter panel
// reproduces them bit for bit.
func (w *spectra) Verify(ctx context.Context, ops []int) map[int]string {
	bad := map[int]string{}
	for _, i := range ops {
		res, ok := w.results[i]
		if !ok {
			continue
		}
		if err := checkFig3(res); err != nil {
			bad[i] = err.Error()
			continue
		}
		cfg := w.config(i)
		cfg.Devices = 1 + int(opSeed(w.seed^0xf163, i)%spectraCheckedRows)
		ref, err := experiments.Fig3(cfg)
		if err == nil {
			err = checkFig3Rows(res, ref, cfg.Devices)
		}
		if err != nil {
			bad[i] = err.Error()
		}
	}
	return bad
}

func (w *spectra) Tracer() layerTracer { return spectraTracer{} }

// spectraTracer derives the layer times of the figure from the sampled
// profile: the panel has no span tree below its own call.
type spectraTracer struct{}

func (spectraTracer) Enable() {}

func (spectraTracer) Finish(_ context.Context, ops []int, walls []time.Duration, m map[string]metric) {
	perOp := sum(walls).Seconds() / float64(len(ops))
	set(m, "circuit.self_s", m["cpu_share.circuit"].Value*perOp)
	set(m, "markov.self_s", m["cpu_share.markov"].Value*perOp)
	set(m, "rtn.self_s", m["cpu_share.rtn"].Value*perOp)
	set(m, "unattributed.frac", m["cpu_share.other"].Value)
}

// ---------------------------------------------------------------------
// job-churn

type jobChurn struct {
	serviceBench
	expect map[int]jobResult
}

func newJobChurn(seed uint64, dir string, traced bool) (workload, error) {
	w := &jobChurn{serviceBench: serviceBench{
		seed: seed, dir: dir, runs: map[int]jobRun{},
		history: filepath.Join(dir, "history.jsonl"),
		cfg:     daemonConfig{jobWorkers: 1},
	}, expect: map[int]jobResult{}}
	w.warmup = w.spec(0)
	w.warmup.Seed = setupSeed
	if traced {
		w.cfg.server = newRouteTimer()
	}
	return w, writeHistory(w.history, seed, churnHistoryJobs, 1, jobd.TypeArray)
}

// spec returns the tiny job of operation i: the client cycles through
// churnSpecs distinct specs, so every result can be checked against an
// in-process recomputation.
func (w *jobChurn) spec(i int) jobd.Spec {
	k := i % churnSpecs
	off := false
	cells := 1
	if k%4 == 3 {
		cells = 2
	}
	return jobd.Spec{Type: jobd.TypeArray, Seed: opSeed(w.seed, k), Cells: cells,
		Pattern: churnPattern, WithRTN: &off, Workers: 1}
}

func (w *jobChurn) Setup(ctx context.Context) error {
	d, err := startDaemon(w.cfg)
	if err != nil {
		return err
	}
	w.d = d
	w.replays = append(w.replays, d.replay)
	if jr := d.runJob(ctx, w.warmup); jr.failure != "" {
		return fmt.Errorf("warm-up job: %s", jr.failure)
	}
	return nil
}

func (w *jobChurn) Op(ctx context.Context, i int) opResult {
	jr := w.d.runJob(ctx, w.spec(i))
	w.record(i, jr)
	return opResult{units: len(jr.result.Cells), failure: jr.failure}
}

func (w *jobChurn) GCPerOp() bool { return false }

// Verify compares every job's result — summary and every cell record —
// with the in-process result of the same spec.
func (w *jobChurn) Verify(ctx context.Context, ops []int) map[int]string {
	bad := map[int]string{}
	for _, i := range ops {
		jr := w.run(i)
		if jr.failure != "" {
			continue
		}
		k := i % churnSpecs
		want, ok := w.expect[k]
		if !ok {
			var err error
			if want, err = simulateJob(ctx, jr.spec); err != nil {
				bad[i] = err.Error()
				continue
			}
			w.expect[k] = want
		}
		if !bitsEqual(want.Summary, jr.result.Summary) || !bitsEqual(want.Cells, jr.result.Cells) {
			bad[i] = "result differs from its in-process recomputation"
		}
	}
	return bad
}

// simulateJob runs an array spec in process and returns the result the
// service should serve for it.
func simulateJob(ctx context.Context, spec jobd.Spec) (jobResult, error) {
	cfg, err := spec.ArrayConfig()
	if err != nil {
		return jobResult{}, err
	}
	res, err := montecarlo.RunArrayCtx(ctx, cfg, samurai.ArrayRunnerCtx(), montecarlo.ArrayOptions{})
	if err != nil {
		return jobResult{}, err
	}
	out := jobResult{Summary: &jobd.Summary{NumFailed: res.NumFailed, ErrorRate: res.ErrorRate, MeanTraps: res.MeanTraps}}
	for _, o := range res.Outcomes {
		out.Cells = append(out.Cells, jobd.NewCellRecord(o))
	}
	return out, nil
}

func (w *jobChurn) Tracer() layerTracer { return (*churnTracer)(w) }

type churnTracer jobChurn

func (t *churnTracer) Enable() { t.enableService() }

// Finish folds the span trees of the first churnTracedJobs traced jobs
// (the per-operation figures are averages over that subset) and records
// the service metrics over all of them.
func (t *churnTracer) Finish(ctx context.Context, ops []int, walls []time.Duration, m map[string]metric) {
	sub := ops
	if len(sub) > churnTracedJobs {
		sub = sub[:churnTracedJobs]
	}
	self, simWall, cells, busy := foldJobTraces(ctx, t.d, sub, t.run)
	n := float64(len(sub)) / float64(len(ops))
	addSelfTimes(m, self, len(sub), time.Duration(float64(simWall)/n), t.serviceWall()+t.queueWait(ops), sum(walls))
	addCellTimes(m, cells)
	set(m, "montecarlo.busy_frac", ratio(busy.Seconds(), simWall.Seconds()))
	t.addServiceMetrics(m, ops, walls)
}
