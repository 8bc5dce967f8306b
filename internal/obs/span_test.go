package obs_test

import (
	"context"
	"sync"
	"testing"

	"samurai/internal/obs"
	"samurai/internal/obs/trace"
)

// eventNames records the names of emitted progress events.
type eventNames struct {
	mu    sync.Mutex
	names []string
}

func (c *eventNames) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.names = append(c.names, e.Name)
}

// TestSpanNestingAndRecording: spans opened without a tracer still
// emit one "span" event each and land in the samurai_span_seconds
// histogram under their slash-joined path.
func TestSpanNestingAndRecording(t *testing.T) {
	sink := &eventNames{}
	prev := obs.SetSink(sink)
	defer obs.SetSink(prev)

	ctx, root := trace.Start(context.Background(), "test_run")
	_, child := trace.Start(ctx, "phase1")
	if child.Path() != "test_run/phase1" {
		t.Fatalf("child path = %q", child.Path())
	}
	if d := child.End(); d < 0 {
		t.Fatalf("duration = %v", d)
	}
	root.End()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.names) != 2 || sink.names[0] != "span" || sink.names[1] != "span" {
		t.Fatalf("span events = %v", sink.names)
	}
	h := obs.GetHistogram("samurai_span_seconds", "wall-clock duration of named pipeline spans",
		obs.TimeBuckets(), obs.L("span", "test_run/phase1"))
	if n := h.Snapshot().Count; n != 1 {
		t.Fatalf("span histogram count = %d, want 1", n)
	}
}

// TestNilSpanIsInert: a nil span's methods are no-ops.
func TestNilSpanIsInert(t *testing.T) {
	var s *trace.Span
	if s.Path() != "" || s.SpanID() != 0 || s.End() != 0 {
		t.Fatal("nil span not inert")
	}
}
