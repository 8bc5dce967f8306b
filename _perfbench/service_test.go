package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"samurai/internal/fabric"
	"samurai/internal/jobd"
)

func TestSchedulerJobRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.jsonl")
	if err := writeHistory(wal, 3, 5, 2, jobd.TypeArray); err != nil {
		t.Fatal(err)
	}
	server := newRouteTimer()
	server.on.Store(true)
	d, err := startDaemon(daemonConfig{walPath: wal, jobWorkers: 2, server: server})
	if err != nil {
		t.Fatal(err)
	}
	off := false
	spec := jobd.Spec{Type: jobd.TypeArray, Seed: 9, Cells: 3, Pattern: "1", WithRTN: &off, Workers: 2}
	jr := d.runJob(ctx, spec)
	if jr.failure != "" {
		t.Fatal(jr.failure)
	}
	if jr.running.IsZero() || jr.running.Before(jr.submitted) {
		t.Errorf("running event at %v, submitted at %v", jr.running, jr.submitted)
	}
	want, err := simulateJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(want.Summary, jr.result.Summary) || !bitsEqual(want.Cells, jr.result.Cells) {
		t.Error("service result differs from the in-process run")
	}
	spans, err := d.fetchTrace(ctx, jr.id)
	if err != nil {
		t.Fatal(err)
	}
	self, wall := selfTimes(spans)
	if self["circuit"] <= 0 || wall <= 0 {
		t.Errorf("trace fold: self %v, wall %v", self, wall)
	}
	for _, r := range []string{"submit", "events", "result"} {
		if _, n := server.total(r); n != 1 {
			t.Errorf("route %s timed %d times, want 1", r, n)
		}
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	// The history plus this job replays on the next start.
	d, err = startDaemon(daemonConfig{walPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.sched.List()); got != 6 {
		t.Errorf("replayed %d jobs, want 6", got)
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
}

func TestFabricJobRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full-methodology cells")
	}
	ctx := context.Background()
	wal := filepath.Join(t.TempDir(), "wal.jsonl")
	acks := newAckTracker()
	tap := newRunnerTap(2)
	client := newRouteTimer()
	d, err := startDaemon(daemonConfig{
		walPath:     wal,
		coordinator: true,
		lease:       fabric.Options{LeaseCells: 1},
		workers:     2,
		worker:      fabric.WorkerOptions{Threads: 1, Poll: 5 * time.Millisecond, OnCheckpoint: acks.ack},
		rareRunner:  tap.runner,
		client:      client,
	})
	if err != nil {
		t.Fatal(err)
	}
	tap.on.Store(true)
	client.on.Store(true)
	tap.startJob()
	spec := jobd.Spec{Type: jobd.TypeRareArray, Seed: 5, Cells: 3, TiltEV: rareTiltEV}
	jr := d.runFabricJob(ctx, acks, spec)
	if jr.failure != "" {
		t.Fatal(jr.failure)
	}
	if err := checkArrayResult(spec, jr.result); err != nil {
		t.Fatal(err)
	}
	if err := checkCell(ctx, spec, jr.result, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(tap.cellTimes()); got != 3 {
		t.Errorf("runner tap timed %d cells, want 3", got)
	}
	self, _ := selfTimes(snapshotSpans(tap.tracers()[0]))
	if self["circuit"] <= 0 {
		t.Errorf("tap trace has no circuit time: %v", self)
	}
	if _, n := client.total("checkpoint"); n < 1 {
		t.Error("no checkpoint round trip timed")
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
}

func TestAckTrackerConcurrent(t *testing.T) {
	tr := newAckTracker()
	done := tr.wait("job-1", 100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 100; i += 4 {
				tr.ack("job-1", i)
				tr.ack("job-1", i) // duplicates count once
				tr.ack("job-2", i)
			}
		}(g)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("completion not signalled")
	}
	// Acks that arrive before the wait is registered still count.
	select {
	case <-tr.wait("job-2", 100):
	case <-time.After(5 * time.Second):
		t.Fatal("late wait not signalled")
	}
	// Once signalled, an id is forgotten: waiting on it again (a later
	// instance replaying the same history) waits for fresh acks.
	first := tr.wait("job-3", 2)
	tr.ack("job-3", 0)
	tr.ack("job-3", 1)
	<-first
	again := tr.wait("job-3", 2)
	tr.ack("job-3", 0)
	select {
	case <-again:
		t.Fatal("reused id signalled by one fresh ack of two")
	default:
	}
	tr.ack("job-3", 7)
	select {
	case <-again:
	case <-time.After(5 * time.Second):
		t.Fatal("reused id not signalled by fresh acks")
	}
}

func TestDisableFsync(t *testing.T) {
	store, _, _, err := jobd.Open(filepath.Join(t.TempDir(), "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := disableFsync(store); err != nil {
		t.Fatal(err)
	}
	if !reflect.ValueOf(store).Elem().FieldByName("nosync").Bool() {
		t.Error("fsync still on")
	}
}

// fakeJobd serves one job over the jobd API: its event stream carries
// the given extra events between "running" and "done", and before the
// stream ends it adds retries to the job's retry counter.
func fakeJobd(t *testing.T, id string, events []string, retries int64) *daemon {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(jobd.View{ID: id, State: jobd.StateQueued})
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"event\":\"jobd.state\",\"job\":%q,\"state\":\"running\"}\n", id)
		for _, e := range events {
			fmt.Fprintln(w, e)
		}
		jobRetries(id).Add(retries)
		fmt.Fprintf(w, "{\"event\":\"jobd.state\",\"job\":%q,\"state\":\"done\"}\n", id)
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(jobResult{ID: id, Summary: &jobd.Summary{}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &daemon{base: srv.URL, client: srv.Client()}
}

func TestRunJobFailsRetriedCells(t *testing.T) {
	ctx := context.Background()
	spec := jobd.Spec{Type: jobd.TypeArray, Seed: 1, Cells: 1}
	retry := `{"event":"jobd.retry","job":"fake-2","seed":5,"attempt":1,"error":"flaky"}`
	for _, c := range []struct {
		name    string
		id      string
		events  []string
		retries int64
		fail    bool
	}{
		{"clean", "fake-1", []string{`{"event":"jobd.cell","index":0}`}, 0, false},
		{"retry event", "fake-2", []string{retry}, 1, true},
		{"retry counted, event dropped", "fake-3", nil, 1, true},
	} {
		jr := fakeJobd(t, c.id, c.events, c.retries).runJob(ctx, spec)
		if got := jr.failure != ""; got != c.fail {
			t.Errorf("%s: failure %q, want failed=%v", c.name, jr.failure, c.fail)
		}
		if c.fail && !strings.Contains(jr.failure, "retried") {
			t.Errorf("%s: failure %q does not name the retry", c.name, jr.failure)
		}
	}
}
