package otrace

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

// fakeClock is a settable run clock for deterministic span times.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Set(v float64) {
	c.mu.Lock()
	c.now = v
	c.mu.Unlock()
}

func TestNilTracerIsDisabledNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin(Ctx{}, "client", "get", 0)
	if sp.ID != 0 || sp.Trace != 0 {
		t.Fatalf("nil Begin returned live span %+v", sp)
	}
	tr.End(sp)
	tr.Emit(Span{ID: 1, Trace: 1})
	if tr.NewID() != 0 {
		t.Error("nil NewID not zero")
	}
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v, want nil", got)
	}
	if kept, total := tr.Stats(); kept != 0 || total != 0 {
		t.Errorf("nil Stats = %d, %d", kept, total)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin(Ctx{}, "server", "handle", 3)
		tr.End(sp)
	})
	if allocs != 0 {
		t.Errorf("disabled Begin/End allocates %v per op", allocs)
	}
}

func TestBeginEndParenting(t *testing.T) {
	clk := &fakeClock{}
	tr := New(Options{Clock: clk.Now})
	root := tr.Begin(Ctx{}, "client", "get", 0)
	if root.Trace == 0 || root.ID == 0 || root.Parent != 0 {
		t.Fatalf("bad root span %+v", root)
	}
	clk.Set(0.001)
	child := tr.Begin(root.Ctx(), "server", "handle", 2)
	if child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatalf("child %+v not parented under root %+v", child, root)
	}
	clk.Set(0.003)
	tr.End(child)
	clk.Set(0.004)
	tr.End(root)
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Children end first, so the ring holds child then root.
	if spans[0].Dur != 0.002 || spans[1].Dur != 0.004 {
		t.Errorf("durations %v, %v; want 0.002, 0.004", spans[0].Dur, spans[1].Dur)
	}
	if spans[0].Server != 2 {
		t.Errorf("server = %d, want 2", spans[0].Server)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Options{RingSize: 4, Clock: func() float64 { return 0 }})
	for i := 1; i <= 10; i++ {
		tr.Emit(Span{Trace: 1, ID: uint64(i), Comp: "sim", Name: "req"})
	}
	kept, total := tr.Stats()
	if kept != 4 || total != 10 {
		t.Fatalf("Stats = %d, %d; want 4, 10", kept, total)
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(spans))
	}
	// Oldest first: 7, 8, 9, 10 survive.
	for i, sp := range spans {
		if want := uint64(7 + i); sp.ID != want {
			t.Errorf("span %d has ID %d, want %d", i, sp.ID, want)
		}
	}
}

func TestSlowLogDumpsTree(t *testing.T) {
	var buf bytes.Buffer
	clk := &fakeClock{}
	tr := New(Options{Clock: clk.Now, Slow: 0.010, SlowWriter: &buf})

	// Fast request: below threshold, no dump.
	fast := tr.Begin(Ctx{}, "client", "get", 0)
	clk.Set(0.002)
	tr.End(fast)
	if buf.Len() != 0 {
		t.Fatalf("fast request logged: %q", buf.String())
	}

	// Slow request with a two-level tree.
	clk.Set(0)
	root := tr.Begin(Ctx{}, "client", "multiget", 0)
	leg := tr.Begin(root.Ctx(), "client", "leg", 1)
	srv := tr.Begin(leg.Ctx(), "server", "service", 1)
	clk.Set(0.011)
	tr.End(srv)
	tr.End(leg)
	tr.End(root)
	out := buf.String()
	if !strings.Contains(out, "slow request") {
		t.Fatalf("no slow-request header in %q", out)
	}
	for _, want := range []string{"client/leg", "server/service"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow dump missing %q:\n%s", want, out)
		}
	}
	// The server span nests two levels deep: two leading indents.
	if !strings.Contains(out, "    server/service") {
		t.Errorf("server span not indented as grandchild:\n%s", out)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got.Valid() {
		t.Fatalf("empty context yields %+v", got)
	}
	c := Ctx{Trace: 7, Span: 9}
	ctx = ContextWith(ctx, c)
	if got := FromContext(ctx); got != c {
		t.Fatalf("round trip = %+v, want %+v", got, c)
	}
	// Invalid contexts are not stored.
	base := context.Background()
	if ContextWith(base, Ctx{}) != base {
		t.Error("zero Ctx was stored")
	}
}

func TestConcurrentEmitSnapshot(t *testing.T) {
	tr := New(Options{RingSize: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := tr.Begin(Ctx{}, "client", "get", g)
				tr.End(sp)
				if i%100 == 0 {
					tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if kept, total := tr.Stats(); kept != 128 || total != 4000 {
		t.Errorf("Stats = %d, %d; want 128, 4000", kept, total)
	}
}
