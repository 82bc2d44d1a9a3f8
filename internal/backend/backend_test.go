package backend

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
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

func TestClose(t *testing.T) {
	db, _ := New(Options{MuD: 1e6, QueueDepth: 1024})
	db.Close()
	db.Close() // idempotent
	if _, err := db.Get(context.Background(), "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v", err)
	}
}
