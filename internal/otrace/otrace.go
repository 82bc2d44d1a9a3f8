// Package otrace provides request-scoped tracing for the memqlat
// planes: spans carry a trace/span ID pair from the client's MultiGet
// fork-join through the proxy hop, the server's queue/service path and
// the backend miss path, so one slow request can be followed across
// every tier the paper's Theorem 1 decomposes in aggregate.
//
// Spans are recorded against the run clock — wall time on the live
// plane, virtual time on the simulator — into a fixed-size ring, and
// exported as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// The nil *Tracer is a valid, disabled tracer: every method is a
// no-op that allocates nothing, so instrumented hot paths pay one
// predictable branch when tracing is off.
package otrace

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// wallClock is the default run clock: wall seconds since tracer
// creation, monotonic.
func wallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// Ctx is the propagated identity of an in-flight span: the trace it
// belongs to and the span ID its children should parent under. The
// zero Ctx means "not traced".
type Ctx struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a live trace.
func (c Ctx) Valid() bool { return c.Trace != 0 }

// Span is one timed operation. Start and Dur are seconds on the run
// clock: wall seconds since the tracer was created on the live plane,
// virtual seconds on the sim plane.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	// Comp is the tier that produced the span (client, proxy, server,
	// backend, sim); Name is the operation or stage within it.
	Comp   string
	Name   string
	Server int
	Start  float64
	Dur    float64
}

// Ctx returns the propagation context that parents children under sp.
func (sp Span) Ctx() Ctx { return Ctx{Trace: sp.Trace, Span: sp.ID} }

// Options configures a Tracer.
type Options struct {
	// RingSize caps the number of retained spans (default 16384).
	RingSize int
	// Clock supplies the run clock in seconds. Default: wall seconds
	// since New. The sim plane bypasses it via Emit's explicit times.
	Clock func() float64
	// Slow, when positive, logs the full span tree of any root span
	// whose duration reaches it.
	Slow float64
	// SlowWriter receives slow-request dumps (default os.Stderr).
	SlowWriter io.Writer
}

// Tracer collects spans into a bounded ring. A nil Tracer is disabled:
// all methods no-op without allocating.
type Tracer struct {
	clock func() float64
	slow  float64
	slowW io.Writer

	ids atomic.Uint64

	mu    sync.Mutex
	ring  []Span
	next  int
	total uint64

	slowMu sync.Mutex
}

const defaultRingSize = 16384

// New returns an enabled Tracer.
func New(o Options) *Tracer {
	if o.RingSize <= 0 {
		o.RingSize = defaultRingSize
	}
	if o.Clock == nil {
		o.Clock = wallClock()
	}
	if o.SlowWriter == nil {
		o.SlowWriter = os.Stderr
	}
	return &Tracer{
		clock: o.Clock,
		slow:  o.Slow,
		slowW: o.SlowWriter,
		ring:  make([]Span, 0, o.RingSize),
	}
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// NewID mints a fresh nonzero span or trace ID; 0 when disabled.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Begin opens a span under parent: a fresh trace when parent is the
// zero Ctx, a child otherwise. The returned Span's clock is running;
// close it with End. When disabled it returns the zero Span.
func (t *Tracer) Begin(parent Ctx, comp, name string, server int) Span {
	if t == nil {
		return Span{}
	}
	trace := parent.Trace
	if trace == 0 {
		trace = t.NewID()
	}
	return Span{
		Trace:  trace,
		ID:     t.NewID(),
		Parent: parent.Span,
		Comp:   comp,
		Name:   name,
		Server: server,
		Start:  t.clock(),
	}
}

// End stamps sp's duration from the run clock and records it. Ending
// the zero Span (from a disabled Begin) is a no-op.
func (t *Tracer) End(sp Span) {
	if t == nil || sp.ID == 0 {
		return
	}
	sp.Dur = t.clock() - sp.Start
	t.Emit(sp)
}

// Emit records a span with explicit Start/Dur — the seam the simulator
// uses to emit virtual-time spans. No-op when disabled or when sp has
// no ID.
func (t *Tracer) Emit(sp Span) {
	if t == nil || sp.ID == 0 {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, sp)
	} else {
		t.ring[t.next] = sp
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
	}
	t.total++
	t.mu.Unlock()
	if t.slow > 0 && sp.Parent == 0 && sp.Dur >= t.slow {
		t.logSlow(sp)
	}
}

// Snapshot copies the retained spans out of the ring, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Stats reports how many spans are retained and how many were recorded
// over the tracer's lifetime; their difference is the eviction count.
func (t *Tracer) Stats() (kept int, total uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring), t.total
}

// logSlow dumps the span tree of root's trace to the slow writer. The
// tree is rebuilt from whatever siblings the ring still holds, so a
// very small ring may truncate it.
func (t *Tracer) logSlow(root Span) {
	var members []Span
	t.mu.Lock()
	for _, sp := range t.ring {
		if sp.Trace == root.Trace {
			members = append(members, sp)
		}
	}
	t.mu.Unlock()
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	fmt.Fprintf(t.slowW, "otrace: slow request trace=%d dur=%.3fms (threshold %.3fms)\n",
		root.Trace, root.Dur*1e3, t.slow*1e3)
	writeTree(t.slowW, members, root.ID, root.Start, 1)
}

// writeTree renders the spans parented (transitively) under parent,
// indented by depth, with starts relative to base.
func writeTree(w io.Writer, spans []Span, parent uint64, base float64, depth int) {
	var kids []Span
	for _, sp := range spans {
		if sp.Parent == parent {
			kids = append(kids, sp)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	for _, sp := range kids {
		for i := 0; i < depth; i++ {
			io.WriteString(w, "  ")
		}
		fmt.Fprintf(w, "%s/%s srv=%d start=+%.3fms dur=%.3fms\n",
			sp.Comp, sp.Name, sp.Server, (sp.Start-base)*1e3, sp.Dur*1e3)
		writeTree(w, spans, sp.ID, base, depth+1)
	}
}

// --- context propagation ---------------------------------------------

type ctxKey struct{}

// ContextWith returns ctx carrying c, for hand-off across API seams
// that take a context (the backend filler path).
func ContextWith(ctx context.Context, c Ctx) context.Context {
	if !c.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext extracts the trace context, or the zero Ctx.
func FromContext(ctx context.Context) Ctx {
	c, _ := ctx.Value(ctxKey{}).(Ctx)
	return c
}
