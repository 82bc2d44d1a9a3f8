package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestStageNames(t *testing.T) {
	want := map[Stage]string{
		StageQueueWait:    "queue_wait",
		StageService:      "service",
		StageMissPenalty:  "miss_penalty",
		StageForkJoin:     "fork_join",
		StageRetry:        "retry",
		StageHedgeWait:    "hedge_wait",
		StageBreakerShed:  "breaker_shed",
		StageLockWait:     "lock_wait",
		StageProxyHop:     "proxy_hop",
		StageCoalesceWait: "coalesce_wait",
		StageTenantShed:   "tenant_shed",
		StageDiskRead:     "disk_read",
	}
	if len(Stages()) != len(want) {
		t.Fatalf("Stages() = %d entries, want %d", len(Stages()), len(want))
	}
	for stage, name := range want {
		if stage.String() != name {
			t.Errorf("%d.String() = %q, want %q", stage, stage.String(), name)
		}
	}
	if got := Stage(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown stage string = %q", got)
	}
}

// TestStageTableComplete: a stage added to the const block without a
// stageNames row would report as "" — every stage below numStages must
// have a unique non-empty name, and Stages must list them in order.
func TestStageTableComplete(t *testing.T) {
	seen := map[string]Stage{}
	for i, stage := range Stages() {
		if stage != Stage(i) {
			t.Fatalf("Stages()[%d] = %d, want reporting order", i, stage)
		}
		name := stage.String()
		if name == "" {
			t.Errorf("stage %d has no name in stageNames", stage)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("stages %d and %d share the name %q", prev, stage, name)
		}
		seen[name] = stage
	}
	if len(seen) != int(numStages) {
		t.Errorf("%d distinct names for %d stages", len(seen), numStages)
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 100; i++ {
		c.Observe(StageService, float64(i)*1e-6)
	}
	c.Observe(StageMissPenalty, 1e-3)
	b := c.Breakdown()
	if b.Empty() {
		t.Fatal("breakdown empty after observations")
	}
	svc := b[StageService]
	if svc.Count != 100 {
		t.Errorf("service count = %d", svc.Count)
	}
	if math.Abs(svc.Mean-50.5e-6) > 1e-6 {
		t.Errorf("service mean = %v, want ~50.5µs", svc.Mean)
	}
	if svc.P50 <= 0 || svc.P99 < svc.P50 {
		t.Errorf("quantiles inconsistent: p50=%v p99=%v", svc.P50, svc.P99)
	}
	if math.Abs(svc.Total-svc.Mean*100) > 1e-12 {
		t.Errorf("total = %v, want mean*count", svc.Total)
	}
	if b[StageQueueWait].Count != 0 {
		t.Errorf("queue_wait observed without records")
	}
	if b.MeanOf(StageMissPenalty) != 1e-3 {
		t.Errorf("miss_penalty mean = %v", b.MeanOf(StageMissPenalty))
	}
	if !strings.Contains(b.String(), "service") {
		t.Errorf("String() = %q missing stage name", b.String())
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Observe(StageQueueWait, 1e-6)
				c.Observe(StageService, 2e-6)
			}
		}()
	}
	wg.Wait()
	b := c.Breakdown()
	if b[StageQueueWait].Count != 8000 || b[StageService].Count != 8000 {
		t.Errorf("counts = %d/%d, want 8000/8000",
			b[StageQueueWait].Count, b[StageService].Count)
	}
}

func TestNopAndOrNop(t *testing.T) {
	Nop.Observe(StageService, 1) // must not panic
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	c := NewCollector()
	if OrNop(c) != Recorder(c) {
		t.Error("OrNop(c) != c")
	}
	c.Observe(Stage(-1), 1) // out of range: ignored
	c.Observe(Stage(99), 1)
	if !c.Breakdown().Empty() {
		t.Error("out-of-range stages recorded")
	}
}

func TestCollectorShardHandles(t *testing.T) {
	c := NewCollector()
	// Handles with different hints map to a bounded set of stripes; all
	// of their observations must land in one merged Breakdown.
	for hint := uint64(0); hint < 32; hint++ {
		h := Shard(c, hint)
		for i := 0; i < 10; i++ {
			h.Observe(StageService, 1e-6)
		}
	}
	if got := c.Breakdown()[StageService].Count; got != 320 {
		t.Errorf("merged count = %d, want 320", got)
	}
	// Same hint -> same stripe (stable routing).
	if Shard(c, 3) != Shard(c, 3) {
		t.Error("Shard not stable for equal hints")
	}
}

func TestShardFallbacks(t *testing.T) {
	// A non-Sharder recorder falls back to itself; nil falls back to Nop.
	if Shard(Nop, 7) != Nop {
		t.Error("Shard(Nop) != Nop")
	}
	if Shard(nil, 7) != Nop {
		t.Error("Shard(nil) != Nop")
	}
}

func TestTeeShards(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	h := Shard(Tee(a, b), 5)
	h.Observe(StageQueueWait, 2e-6)
	if a.Breakdown()[StageQueueWait].Count != 1 || b.Breakdown()[StageQueueWait].Count != 1 {
		t.Error("sharded tee did not fan out to both collectors")
	}
}

func TestCollectorShardConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := Shard(c, uint64(w))
			for i := 0; i < 1000; i++ {
				h.Observe(StageService, 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Breakdown()[StageService].Count; got != 16000 {
		t.Errorf("count = %d, want 16000", got)
	}
}

// TestCollectorConcurrentMerge hammers striped handles from many
// goroutines while Breakdown and Histograms merge snapshots in
// parallel: the striped-recorder merge path must be race-free and the
// final merged counts exact.
func TestCollectorConcurrentMerge(t *testing.T) {
	c := NewCollector()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent mergers: snapshot while recording is in flight.
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := c.Breakdown()
				if b[StageService].Count < 0 {
					t.Error("negative count in mid-run snapshot")
				}
				hs := c.Histograms()
				if hs[StageService].Count() < 0 {
					t.Error("negative histogram count in mid-run snapshot")
				}
			}
		}()
	}
	var rec sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec.Add(1)
		go func(w int) {
			defer rec.Done()
			h := Shard(c, uint64(w))
			for i := 0; i < perWorker; i++ {
				h.Observe(StageService, float64(i+1)*1e-7)
				h.Observe(StageQueueWait, 1e-6)
			}
		}(w)
	}
	rec.Wait()
	close(stop)
	wg.Wait()
	b := c.Breakdown()
	if b[StageService].Count != workers*perWorker {
		t.Errorf("service count = %d, want %d", b[StageService].Count, workers*perWorker)
	}
	if b[StageQueueWait].Count != workers*perWorker {
		t.Errorf("queue_wait count = %d, want %d", b[StageQueueWait].Count, workers*perWorker)
	}
	// The snapshot histograms must agree with the Breakdown quantiles —
	// they are merged from the same stripes.
	hs := c.Histograms()
	svc := hs[StageService]
	if svc.Count() != b[StageService].Count {
		t.Errorf("histogram count %d != breakdown count %d", svc.Count(), b[StageService].Count)
	}
	for q, want := range map[float64]float64{
		0.5: b[StageService].P50, 0.95: b[StageService].P95, 0.99: b[StageService].P99,
	} {
		if got := svc.MustQuantile(q); got != want {
			t.Errorf("histogram q%v = %v, breakdown says %v", q, got, want)
		}
	}
	// Snapshots are private copies: mutating one must not leak back.
	svc.Record(1e3)
	if c.Histograms()[StageService].Count() != b[StageService].Count {
		t.Error("mutating a Histograms() snapshot leaked into the collector")
	}
}

func TestBreakdownP95Ordering(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 1000; i++ {
		c.Observe(StageService, float64(i)*1e-6)
	}
	st := c.Breakdown()[StageService]
	if !(st.P50 <= st.P95 && st.P95 <= st.P99) {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v", st.P50, st.P95, st.P99)
	}
	// Uniform 1..1000µs: p95 must sit near 950µs within bucket error.
	if st.P95 < 900e-6 || st.P95 > 1000e-6 {
		t.Errorf("p95 = %v, want ~950µs", st.P95)
	}
}

// TestDrainEqualsHistograms: Drain hands back exactly what Histograms
// showed just before it — recorded here through every shard handle
// from concurrent goroutines (run under -race) — and leaves the
// collector empty but usable.
func TestDrainEqualsHistograms(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := Shard(c, uint64(w))
			for i := 0; i < 500; i++ {
				h.Observe(StageService, float64(w*500+i+1)*1e-7)
				h.Observe(StageMissPenalty, float64(i+1)*1e-5)
			}
		}(w)
	}
	wg.Wait()
	before := c.Histograms()
	drained := c.Drain()
	for _, stage := range Stages() {
		want, got := before[stage], drained[stage]
		if got.Count() != want.Count() || got.Min() != want.Min() || got.Max() != want.Max() ||
			got.Mean() != want.Mean() {
			t.Fatalf("%s: drained count/min/max/mean %d/%v/%v/%v, Histograms said %d/%v/%v/%v", stage,
				got.Count(), got.Min(), got.Max(), got.Mean(), want.Count(), want.Min(), want.Max(), want.Mean())
		}
		for q := 0.0; q <= 1; q += 1.0 / 32 {
			if g, w := got.MustQuantile(q), want.MustQuantile(q); g != w {
				t.Errorf("%s q=%v: drained %v, Histograms said %v", stage, q, g, w)
			}
		}
	}
	if drained[StageService].Count() != 8000 {
		t.Errorf("drained service count = %d, want 8000", drained[StageService].Count())
	}
	if !c.Breakdown().Empty() {
		t.Error("collector not empty after Drain")
	}
	c.Observe(StageService, 1e-6)
	if got := c.Breakdown()[StageService].Count; got != 1 {
		t.Errorf("count after Drain+Observe = %d, want 1", got)
	}
}

// TestObserveZeroAlloc is the steady-state gate for the recorder every
// tier calls per command: neither the collector nor a shard handle
// allocates once its histograms cover the sample range, nor does
// taking the handle.
func TestObserveZeroAlloc(t *testing.T) {
	c := NewCollector()
	h := c.Shard(3)
	c.Observe(StageService, 1)
	h.Observe(StageService, 1)
	c.Drain()
	if n := testing.AllocsPerRun(1000, func() { c.Observe(StageService, 123e-6) }); n != 0 {
		t.Errorf("Collector.Observe: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(StageService, 123e-6) }); n != 0 {
		t.Errorf("shard handle Observe: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = c.Shard(5) }); n != 0 {
		t.Errorf("Collector.Shard: %v allocs/op, want 0", n)
	}
}
