package obs

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(10)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1010 {
		t.Fatalf("counter = %d, want %d", got, 8*1010)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestFloatCounterConcurrent(t *testing.T) {
	var c FloatCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("float counter = %g, want 4000", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 1e6} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// Upper bounds are inclusive: {≤1: 2, ≤10: 2, ≤100: 2, +Inf: 1}.
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 7 {
		t.Fatalf("count = %d, want 7", snap.Count)
	}
	if snap.Sum != 0.5+1+5+10+50+100+1e6 {
		t.Fatalf("sum = %g", snap.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(ExpBuckets(1e-3, 10, 6))
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(w) * 1e-3)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 16*500 {
		t.Fatalf("count = %d, want %d", got, 16*500)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	newHistogram([]float64{1, 1, 2})
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "ignored later help")
	if a != b {
		t.Fatal("same series resolved to different counters")
	}
	l1 := r.Counter("x_total", "help", L("worker", "1"))
	if l1 == a {
		t.Fatal("labelled series aliased the unlabelled one")
	}
	// Label order must not matter.
	m1 := r.Gauge("g", "", L("a", "1"), L("b", "2"))
	m2 := r.Gauge("g", "", L("b", "2"), L("a", "1"))
	if m1 != m2 {
		t.Fatal("label order changed series identity")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("bad name!", "")
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b help").Add(2)
	r.Gauge("a_value", "a help").Set(1.5)
	r.Counter("b_total", "", L("worker", "1")).Inc()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)

	var out1, out2 strings.Builder
	if err := r.WritePrometheus(&out1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatal("exposition not deterministic")
	}
	want := `# HELP a_value a help
# TYPE a_value gauge
a_value 1.5
# HELP b_total b help
# TYPE b_total counter
b_total 2
b_total{worker="1"} 1
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 10.55
lat_seconds_count 3
`
	if got := out1.String(); got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// captureSink records events for assertions.
type captureSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureSink) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *captureSink) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.events))
	for i, e := range c.events {
		out[i] = e.Name
	}
	return out
}

func TestEmitRoutesThroughCurrentSink(t *testing.T) {
	cap := &captureSink{}
	prev := SetSink(cap)
	defer SetSink(prev)
	if !Enabled() {
		t.Fatal("Enabled() false with a live sink")
	}
	Emit("hello", F("n", 3))
	if got := cap.names(); len(got) != 1 || got[0] != "hello" {
		t.Fatalf("events = %v", got)
	}
	SetSink(Discard)
	if Enabled() {
		t.Fatal("Enabled() true with Discard")
	}
	Emit("dropped")
	if got := cap.names(); len(got) != 1 {
		t.Fatalf("Discard leaked an event: %v", got)
	}
}

func TestTextSinkFormat(t *testing.T) {
	var b strings.Builder
	s := NewTextSink(&syncWriter{w: &b})
	s.Emit(Event{Name: "mc.progress", Fields: []Field{
		F("done", 12), F("rate", 3.5), F("phase", "rtn pass"), F("ok", true),
		F("err", errors.New("boom")), F("d", 1500*time.Millisecond),
	}})
	got := b.String()
	want := "mc.progress done=12 rate=3.5 phase=\"rtn pass\" ok=true err=\"boom\" d=1.5s\n"
	if got != want {
		t.Fatalf("text line:\ngot  %q\nwant %q", got, want)
	}
}

func TestJSONLSinkFormat(t *testing.T) {
	var b strings.Builder
	s := NewJSONLSink(&syncWriter{w: &b})
	s.Emit(Event{Name: "span", Fields: []Field{
		F("span", "run/clean"), F("seconds", 0.25), F("n", int64(7)), F("ok", false),
	}})
	got := b.String()
	want := `{"event":"span","span":"run/clean","seconds":0.25,"n":7,"ok":false}` + "\n"
	if got != want {
		t.Fatalf("jsonl line:\ngot  %q\nwant %q", got, want)
	}
}

// syncWriter adapts a strings.Builder (not safe for concurrent use) to
// the sink tests.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestSinksAreConcurrencySafe(t *testing.T) {
	var b strings.Builder
	for _, s := range []Sink{NewTextSink(&syncWriter{w: &b}), NewJSONLSink(&syncWriter{w: &b})} {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					s.Emit(Event{Name: "e", Fields: []Field{F("i", i)}})
				}
			}()
		}
		wg.Wait()
	}
}

func TestMultiSink(t *testing.T) {
	a, b := &captureSink{}, &captureSink{}
	m := MultiSink(a, nil, Discard, b)
	m.Emit(Event{Name: "x"})
	if len(a.names()) != 1 || len(b.names()) != 1 {
		t.Fatal("multi sink dropped an event")
	}
	if MultiSink() != Discard || MultiSink(nil, Discard) != Discard {
		t.Fatal("empty multi sink should collapse to Discard")
	}
}

func TestServeMetricsRoundTrip(t *testing.T) {
	GetCounter("obs_test_roundtrip_total", "test counter").Add(41)
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "obs_test_roundtrip_total 41") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	// pprof index must be mounted too.
	resp2, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp2.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp2.StatusCode)
	}
}

func TestMetricsServerCloseIsGraceful(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// An in-flight scrape must finish during Close, not be severed: start
	// a request, then Close concurrently and check the response still
	// arrives intact.
	started := make(chan struct{})
	closed := make(chan error, 1)
	go func() {
		<-started
		closed <- srv.Close()
	}()
	close(started)
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		// Close may win the race and refuse the dial; that is the
		// "listener stopped accepting" half of graceful shutdown.
		if cerr := <-closed; cerr != nil {
			t.Fatalf("close: %v", cerr)
		}
		return
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("in-flight scrape severed by Close: %v", err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if cerr := <-closed; cerr != nil {
		t.Fatalf("close: %v", cerr)
	}
	// Once closed, the port no longer accepts.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func TestMetricsServerCloseIdempotentish(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
