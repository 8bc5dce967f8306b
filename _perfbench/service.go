package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"samurai/internal/fabric"
	"samurai/internal/jobd"
	"samurai/internal/montecarlo"
	"samurai/internal/obs"
)

// routeTimer accumulates request time per API route. As middleware it
// times the handler (server side); as a RoundTripper it times the
// round trip a fabric worker sees (client side). It records only while
// switched on, so an untraced window pays one atomic load per request.
type routeTimer struct {
	on  atomic.Bool
	mu  sync.Mutex
	sum map[string]time.Duration
	n   map[string]int
}

func newRouteTimer() *routeTimer {
	return &routeTimer{sum: map[string]time.Duration{}, n: map[string]int{}}
}

func (rt *routeTimer) add(route string, d time.Duration) {
	rt.mu.Lock()
	rt.sum[route] += d
	rt.n[route]++
	rt.mu.Unlock()
}

// mean returns the mean seconds per request of a route (0 for none).
func (rt *routeTimer) mean(route string) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return ratio(rt.sum[route].Seconds(), float64(rt.n[route]))
}

// total returns the summed time and request count of a route.
func (rt *routeTimer) total(route string) (time.Duration, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sum[route], rt.n[route]
}

// middleware wraps a service handler with per-route timing.
func (rt *routeTimer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rt.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rt.add(routeOf(r.Method, r.URL.Path), time.Since(start))
	})
}

// timedTransport is a RoundTripper that times requests per route.
type timedTransport struct {
	rt   *routeTimer
	base http.RoundTripper
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.rt.on.Load() {
		return t.base.RoundTrip(r)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	t.rt.add(routeOf(r.Method, r.URL.Path), time.Since(start))
	return resp, err
}

// routeOf names the API route of a request.
func routeOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/jobs":
		return "submit"
	case path == fabric.PathLease:
		return "lease"
	case path == fabric.PathCheckpoint:
		return "checkpoint"
	case strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/result"):
		return "result"
	case strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/trace"):
		return "trace"
	case strings.HasPrefix(path, "/jobs/"):
		return "status"
	}
	return "other"
}

// daemonConfig describes one in-process service instance: a jobd
// scheduler, or a fabric coordinator with its workers, behind a
// loopback HTTP listener.
type daemonConfig struct {
	walPath string
	// jobWorkers is the scheduler's default per-job cell parallelism.
	jobWorkers int
	// coordinator selects the fabric; lease and worker configure it.
	coordinator bool
	lease       fabric.Options
	workers     int
	worker      fabric.WorkerOptions
	// rareRunner, when set, gives worker i its rare-cell runner.
	rareRunner func(i int) montecarlo.RareCtxRunner
	// server and client, when set, time requests per route.
	server, client *routeTimer
}

// daemon is a running service instance.
type daemon struct {
	store     *jobd.Store
	sched     *jobd.Scheduler
	coord     *fabric.Coordinator
	srv       *http.Server
	served    chan error
	base      string
	client    *http.Client
	transport *http.Transport
	// replay is the time to open the WAL, replay it and compact it.
	replay time.Duration

	workers    []*fabric.Worker
	transports []*http.Transport
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	runErrs    chan error
}

// disableFsync switches off the per-append fsync of a WAL, through the
// store's own unexported switch (jobd's tests use it the same way). On
// tmpfs an fsync costs nothing; the benchmark may write only inside its
// checkout, which is on disk, where one fsync takes from under 0.1 ms to
// over 10 ms depending on what else shares the disk. Every record is
// still encoded and written, and jobd.wal_records_per_job counts them.
func disableFsync(s *jobd.Store) error {
	f := reflect.ValueOf(s).Elem().FieldByName("nosync")
	if !f.IsValid() || f.Kind() != reflect.Bool {
		return errors.New("jobd.Store has no bool field nosync; update disableFsync")
	}
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetBool(true)
	return nil
}

// startDaemon opens the WAL (replaying and compacting its history, as
// samuraid does on start) with fsync off, builds the scheduler or
// coordinator, starts the listener and, for the fabric, the workers.
func startDaemon(cfg daemonConfig) (*daemon, error) {
	start := time.Now()
	store, replayed, maxSeq, err := jobd.Open(cfg.walPath)
	if err != nil {
		return nil, err
	}
	if err := disableFsync(store); err != nil {
		_ = store.Close() // the switch error is the one to report
		return nil, err
	}
	if err := store.Compact(replayed); err != nil {
		_ = store.Close() // the compaction error is the one to report
		return nil, fmt.Errorf("compacting WAL: %w", err)
	}
	d := &daemon{store: store, replay: time.Since(start), served: make(chan error, 1)}
	var h http.Handler
	if cfg.coordinator {
		d.coord = fabric.New(store, replayed, maxSeq, cfg.lease)
		h = fabric.NewHandler(d.coord)
	} else {
		d.sched = jobd.New(store, replayed, maxSeq, jobd.Options{Workers: cfg.jobWorkers})
		d.sched.Start()
		h = jobd.NewHandler(d.sched)
	}
	if cfg.server != nil {
		h = cfg.server.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.drainService()
		_ = store.Close() // the listen error is the one to report
		return nil, err
	}
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.transport = &http.Transport{MaxIdleConnsPerHost: 4}
	d.client = &http.Client{Timeout: 2 * time.Minute, Transport: d.transport}

	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.runErrs = make(chan error, cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		opts := cfg.worker
		opts.BaseURL = d.base
		opts.ID = fmt.Sprintf("w%d", i)
		tr := &http.Transport{MaxIdleConnsPerHost: 4}
		d.transports = append(d.transports, tr)
		var rt http.RoundTripper = tr
		if cfg.client != nil {
			rt = timedTransport{rt: cfg.client, base: tr}
		}
		opts.Client = &http.Client{Timeout: 30 * time.Second, Transport: rt}
		if cfg.rareRunner != nil {
			opts.RareRunner = cfg.rareRunner(i)
		}
		w := fabric.NewWorker(opts)
		d.workers = append(d.workers, w)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				d.runErrs <- err
			}
		}()
	}
	return d, nil
}

// drainService stops the scheduler or coordinator.
func (d *daemon) drainService() {
	if d.sched != nil {
		d.sched.Drain()
	}
	if d.coord != nil {
		d.coord.Drain()
	}
}

// stop drains the workers, then the service, the HTTP server and the
// WAL — samuraid's shutdown order — and waits for every goroutine it
// started.
func (d *daemon) stop() error {
	for _, w := range d.workers {
		w.Drain()
	}
	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cancel()
		<-done
	}
	d.cancel()
	var errs []error
	close(d.runErrs)
	for err := range d.runErrs {
		errs = append(errs, fmt.Errorf("fabric worker: %w", err))
	}
	d.drainService()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("http serve: %w", err))
	}
	d.transport.CloseIdleConnections()
	for _, tr := range d.transports {
		tr.CloseIdleConnections()
	}
	if err := d.store.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// call sends one JSON request and decodes a 2xx JSON response into
// out; any other status is an error carrying the response body.
func (d *daemon) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, body)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jobResult is the GET /jobs/{id}/result document.
type jobResult struct {
	ID      string            `json:"id"`
	Summary *jobd.Summary     `json:"summary"`
	Cells   []jobd.CellRecord `json:"cells"`
}

// jobRun is the client-side record of one submitted job.
type jobRun struct {
	spec   jobd.Spec
	id     string
	result jobResult
	// submitted is when the submit response arrived, running when the
	// event stream reported the job running (zero if never seen).
	submitted, running time.Time
	failure            string
}

// submit posts a job spec and returns its id.
func (d *daemon) submit(ctx context.Context, spec jobd.Spec) (string, error) {
	var v jobd.View
	if err := d.call(ctx, http.MethodPost, "/jobs", spec, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// runJob submits spec to the scheduler, follows the job's event stream
// until the service closes it (the job reached a terminal state) and
// fetches the result.
func (d *daemon) runJob(ctx context.Context, spec jobd.Spec) jobRun {
	jr := jobRun{spec: spec}
	id, err := d.submit(ctx, spec)
	if err != nil {
		jr.failure = err.Error()
		return jr
	}
	jr.id, jr.submitted = id, time.Now()
	retries := jobRetries(id)
	before := retries.Value()
	state, retried, err := d.follow(ctx, id, &jr.running)
	if err != nil {
		jr.failure = err.Error()
		return jr
	}
	if state != jobd.StateDone {
		jr.failure = fmt.Sprintf("job %s ended %s", id, state)
		return jr
	}
	if n := max(int64(retried), retries.Value()-before); n > 0 {
		jr.failure = fmt.Sprintf("job %s retried %d cell runs", id, n)
		return jr
	}
	if err := d.call(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &jr.result); err != nil {
		jr.failure = err.Error()
	}
	return jr
}

// jobRetries is jobd's per-job count of retried cell runs. The stream's
// jobd.retry events say the same, but a stream drops events when its
// reader falls behind; the counter does not.
func jobRetries(id string) *obs.Counter {
	return obs.GetCounter("samurai_jobd_job_retries_total", "", obs.L("job", id))
}

// follow reads a job's NDJSON event stream to its end and returns the
// last state it reported and the number of jobd.retry events; running
// records when "running" was seen.
func (d *daemon) follow(ctx context.Context, id string, running *time.Time) (jobd.State, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("GET /jobs/%s/events: HTTP %d", id, resp.StatusCode)
	}
	var last jobd.State
	retried := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Event string     `json:"event"`
			State jobd.State `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", 0, fmt.Errorf("job %s event: %w", id, err)
		}
		if ev.Event == "jobd.retry" {
			retried++
		}
		if ev.State == "" {
			continue
		}
		last = ev.State
		if last == jobd.StateRunning && running.IsZero() {
			*running = time.Now()
		}
	}
	return last, retried, sc.Err()
}

// ackTracker turns the fabric workers' checkpoint acknowledgements into
// a per-job completion signal, so the client learns that every cell is
// durable without sleep-polling the coordinator.
type ackTracker struct {
	mu   sync.Mutex
	seen map[string]map[int]bool
	want map[string]int
	done map[string]chan struct{}
}

func newAckTracker() *ackTracker {
	return &ackTracker{seen: map[string]map[int]bool{}, want: map[string]int{}, done: map[string]chan struct{}{}}
}

// ack records that the coordinator durably accepted a cell.
func (t *ackTracker) ack(job string, index int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.seen[job]
	if s == nil {
		s = map[int]bool{}
		t.seen[job] = s
	}
	s[index] = true
	t.fire(job)
}

// wait returns a channel closed once n distinct cells of job are acked.
func (t *ackTracker) wait(job string, n int) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	ch := make(chan struct{})
	t.done[job], t.want[job] = ch, n
	t.fire(job)
	return ch
}

// fire closes the job's channel once enough cells are acked and forgets
// the job, so a later wait on the same id waits for fresh acks; callers
// hold mu.
func (t *ackTracker) fire(job string) {
	ch, ok := t.done[job]
	if ok && len(t.seen[job]) >= t.want[job] {
		close(ch)
		delete(t.done, job)
		delete(t.want, job)
		delete(t.seen, job)
	}
}

// runFabricJob submits spec to the coordinator, waits until the workers
// have every cell acknowledged, confirms the job is done (a short poll
// covers the instant between the last acknowledgement and the state
// read) and fetches the result.
func (d *daemon) runFabricJob(ctx context.Context, acks *ackTracker, spec jobd.Spec) jobRun {
	jr := jobRun{spec: spec}
	id, err := d.submit(ctx, spec)
	if err != nil {
		jr.failure = err.Error()
		return jr
	}
	jr.id, jr.submitted = id, time.Now()
	select {
	case <-acks.wait(id, spec.Cells):
	case <-time.After(2 * time.Minute):
		jr.failure = fmt.Sprintf("job %s: cells not acknowledged within 2m", id)
		return jr
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v jobd.View
		if err := d.call(ctx, http.MethodGet, "/jobs/"+id, nil, &v); err != nil {
			jr.failure = err.Error()
			return jr
		}
		if v.State == jobd.StateDone {
			break
		}
		if v.State.Terminal() || time.Now().After(deadline) {
			jr.failure = fmt.Sprintf("job %s is %s after every cell was acknowledged", id, v.State)
			return jr
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.call(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &jr.result); err != nil {
		jr.failure = err.Error()
	}
	return jr
}

// fetchTrace downloads a job's span tree.
func (d *daemon) fetchTrace(ctx context.Context, id string) ([]span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/jobs/"+id+"/trace?format=jsonl", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET trace of %s: HTTP %d", id, resp.StatusCode)
	}
	return parseTraceJSONL(resp.Body)
}

// walStats returns the WAL's size in bytes and records (lines).
func walStats(path string) (size int64, records int, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	return int64(len(b)), bytes.Count(b, []byte{'\n'}), nil
}

// copyFile copies src to dst (a fresh WAL from the pre-populated one).
func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
