package backend

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/testkit"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{MuD: -1}); err == nil {
		t.Error("negative MuD accepted")
	}
	if _, err := New(Options{QueueDepth: -1}); err == nil {
		t.Error("negative depth accepted")
	}
	db, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}

func TestGetReturnsDeterministicValue(t *testing.T) {
	db, err := New(Options{MuD: 1e7}) // ~0.1µs service
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v1, err := db.Get(context.Background(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.Get(context.Background(), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1, v2) {
		t.Error("same key, different values")
	}
	if len(v1) != valueSize {
		t.Errorf("value size = %d", len(v1))
	}
	v3, _ := db.Get(context.Background(), "key-2")
	if bytes.Equal(v1, v3) {
		t.Error("different keys, same value")
	}
}

func TestGetEmptyKey(t *testing.T) {
	db, _ := New(Options{MuD: 1e7})
	defer db.Close()
	if _, err := db.Get(context.Background(), ""); err == nil {
		t.Error("empty key accepted")
	}
}

func TestGetDelayApproximatesMean(t *testing.T) {
	// MuD = 2000/s -> mean 500µs; average over 50 lookups should be in
	// the right ballpark despite sleep granularity.
	db, err := New(Options{MuD: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	start := time.Now()
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := db.Get(context.Background(), "k"); err != nil {
			t.Fatal(err)
		}
	}
	mean := time.Since(start) / n
	if mean < 200*time.Microsecond || mean > 5*time.Millisecond {
		t.Errorf("mean lookup latency = %v, want ~500µs", mean)
	}
	if db.Stats().Lookups != n {
		t.Errorf("lookups = %d", db.Stats().Lookups)
	}
}

func TestGetContextCancel(t *testing.T) {
	db, _ := New(Options{MuD: 0.1}) // 10s mean service: must cancel
	defer db.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := db.Get(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestSingleQueueOverload(t *testing.T) {
	db, err := New(Options{MuD: 1, QueueDepth: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Fire lookups without waiting: the 1-deep queue must overflow.
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := db.Get(ctx, "k")
			errs <- err
		}()
	}
	overloaded := 0
	for i := 0; i < 8; i++ {
		if errors.Is(<-errs, ErrOverloaded) {
			overloaded++
		}
	}
	if overloaded == 0 {
		t.Error("no overload errors from a saturated 1-deep queue")
	}
	if db.Stats().Dropped == 0 {
		t.Error("dropped counter not incremented")
	}
}

// TestSingleQueueCountsAbandonedLookups checks that a lookup whose
// caller gave up keeps its place in the single queue until its service
// would have ended: behind an abandoned lookup in service and another
// abandoned one waiting, a 1-deep queue refuses the next at once.
func TestSingleQueueCountsAbandonedLookups(t *testing.T) {
	db, err := New(Options{MuD: 0.01, QueueDepth: 1, Seed: 6}) // ~100 s a lookup
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := db.Get(ctx, "k")
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("lookup %d: err = %v, want its caller's deadline", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := db.Get(ctx, "k"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("lookup behind two abandoned ones: err = %v, want ErrOverloaded", err)
	}
	if st := db.Stats(); st.QueueDepth != 1 || st.QueuePeak != 1 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want 1 waiting, peak 1, 1 dropped", st)
	}
}

func TestSingleQueuePeakDepth(t *testing.T) {
	// Slow service (1/s) so enqueued jobs pile up behind the first.
	db, err := New(Options{MuD: 1, QueueDepth: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if st := db.Stats(); st.QueuePeak != 0 || st.QueueDepth != 0 {
		t.Fatalf("idle stats = %+v, want zero queue gauges", st)
	}
	done := make(chan struct{})
	for i := 0; i < 6; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, _ = db.Get(ctx, "k")
			done <- struct{}{}
		}()
	}
	for i := 0; i < 6; i++ {
		<-done
	}
	st := db.Stats()
	if st.QueuePeak < 3 {
		t.Errorf("queue peak = %d after 6 concurrent lookups at 1/s service, want >= 3", st.QueuePeak)
	}
	if st.QueuePeak > 16 {
		t.Errorf("queue peak = %d exceeds the queue capacity", st.QueuePeak)
	}
}

func TestConcurrentModeNoQueueGauges(t *testing.T) {
	db, err := New(Options{MuD: 1e6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Get(context.Background(), "k"); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.QueueDepth != 0 || st.QueuePeak != 0 {
		t.Errorf("concurrent-mode stats = %+v, want zero queue gauges", st)
	}
}

func TestSingleQueueServesInOrder(t *testing.T) {
	db, err := New(Options{MuD: 1e6, QueueDepth: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 20; i++ {
		if _, err := db.Get(context.Background(), "k"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClose checks that Close fails later lookups and wakes every
// lookup waiting on the single queue with ErrClosed, leaving no
// goroutine behind.
func TestClose(t *testing.T) {
	settled := testkit.Settles(t)
	db, _ := New(Options{MuD: 0.01, QueueDepth: 1024, Seed: 5}) // ~100 s a lookup
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := db.Get(context.Background(), "k")
			errs <- err
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); db.Stats().QueueDepth < waiters-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want %d lookups queued behind the first", db.Stats(), waiters-1)
		}
	}
	db.Close()
	db.Close() // idempotent
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("waiting lookup woken with %v, want ErrClosed", err)
		}
	}
	if _, err := db.Get(context.Background(), "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
	settled("single-queue DB.Close")
}

// TestFaultTracedLookupEndsSpan: a traced lookup that an injected fault
// fails still ends its span, so the trace keeps its database leg.
func TestFaultTracedLookupEndsSpan(t *testing.T) {
	sched, err := fault.ParseSchedule("reset:srv=db")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := otrace.New(otrace.Options{})
	db, err := New(Options{MuD: 1e7, Tracer: tr,
		Fault: &fault.Point{Inj: inj, Server: fault.Database, Now: func() float64 { return 0 }}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := otrace.ContextWith(context.Background(), otrace.Ctx{Trace: 7, Span: 3})
	if _, err := db.Get(ctx, "k"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get under reset:srv=db = %v, want ErrInjected", err)
	}
	var lookups int
	for _, sp := range tr.Snapshot() {
		if sp.Comp == "backend" && sp.Name == "lookup" && sp.Trace == 7 && sp.Parent == 3 {
			lookups++
		}
	}
	if lookups != 1 {
		t.Errorf("%d backend/lookup spans, want 1: %+v", lookups, tr.Snapshot())
	}
}
