package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memqlat/internal/telemetry"
)

// gate is a fetch whose start and completion the test controls.
type gate struct {
	started chan struct{} // closed when the fetch has begun
	release chan struct{} // fetch blocks until this closes
	calls   atomic.Int64
	value   []byte
	err     error
}

func newGate(value []byte, err error) *gate {
	return &gate{
		started: make(chan struct{}),
		release: make(chan struct{}),
		value:   value,
		err:     err,
	}
}

func (f *gate) fetch(ctx context.Context) ([]byte, error) {
	if f.calls.Add(1) == 1 {
		close(f.started)
	}
	select {
	case <-f.release:
		return f.value, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestSingleFlightFanIn(t *testing.T) {
	g := New(nil)
	f := newGate([]byte("payload"), nil)

	const n = 16
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup

	// Leader first so the call is registered before the waiters arrive.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = g.Do(context.Background(), "hot", f.fetch)
	}()
	<-f.started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Do(context.Background(), "hot", f.fetch)
		}(i)
	}
	waitFor(t, func() bool { return g.Stats().Waiters == n-1 })
	close(f.release)
	wg.Wait()

	if got := f.calls.Load(); got != 1 {
		t.Fatalf("fetch ran %d times, want 1", got)
	}
	shared := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: unexpected error %v", i, errs[i])
		}
		if string(results[i].Value) != "payload" {
			t.Fatalf("caller %d: value %q", i, results[i].Value)
		}
		if results[i].Stale {
			t.Fatalf("caller %d: unexpected Stale", i)
		}
		if results[i].Shared {
			shared++
		}
	}
	if shared != n-1 {
		t.Fatalf("shared results = %d, want %d", shared, n-1)
	}
	st := g.Stats()
	if st.Fetches != 1 || st.FanIns != int64(n-1) || st.Sheds != 0 {
		t.Fatalf("stats = %+v, want 1 fetch, %d fan-ins, 0 sheds", st, n-1)
	}
	if st.InflightKeys != 0 || st.Waiters != 0 {
		t.Fatalf("stats after completion = %+v, want empty table", st)
	}
}

func TestNegativeResultFanOut(t *testing.T) {
	g := New(nil)
	f := newGate(nil, nil) // backend says "no such key"

	var wg sync.WaitGroup
	results := make([]Result, 4)
	errs := make([]error, 4)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], errs[0] = g.Do(context.Background(), "absent", f.fetch) }()
	<-f.started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i], errs[i] = g.Do(context.Background(), "absent", f.fetch) }(i)
	}
	waitFor(t, func() bool { return g.Stats().Waiters == 3 })
	close(f.release)
	wg.Wait()

	for i := range results {
		if errs[i] != nil || results[i].Value != nil {
			t.Fatalf("caller %d: (%q, %v), want negative result (nil, nil)", i, results[i].Value, errs[i])
		}
	}
	if got := f.calls.Load(); got != 1 {
		t.Fatalf("fetch ran %d times, want 1", got)
	}
}

// TestErrorFanOut checks that a failed fetch delivers the same error to
// every participant exactly once: one error return per Do call, all
// identical, and no caller left hanging.
func TestErrorFanOut(t *testing.T) {
	g := New(nil)
	fetchErr := errors.New("backend down")
	f := newGate(nil, fetchErr)

	const n = 8
	var wg sync.WaitGroup
	var deliveries atomic.Int64
	errsCh := make(chan error, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := g.Do(context.Background(), "hot", f.fetch)
		deliveries.Add(1)
		errsCh <- err
	}()
	<-f.started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := g.Do(context.Background(), "hot", f.fetch)
			deliveries.Add(1)
			errsCh <- err
		}()
	}
	waitFor(t, func() bool { return g.Stats().Waiters == n-1 })
	close(f.release)
	wg.Wait()
	close(errsCh)

	if got := deliveries.Load(); got != n {
		t.Fatalf("error delivered %d times, want exactly %d (once per caller)", got, n)
	}
	for err := range errsCh {
		if !errors.Is(err, fetchErr) {
			t.Fatalf("caller saw %v, want %v", err, fetchErr)
		}
	}
}

// TestWaiterCancellationMidFetch cancels one waiter's context while the
// fetch is in flight: the cancelled waiter returns promptly with its
// context error, and the surviving participants still get the value.
func TestWaiterCancellationMidFetch(t *testing.T) {
	g := New(nil)
	f := newGate([]byte("v"), nil)

	var wg sync.WaitGroup
	var leaderRes Result
	var leaderErr error
	wg.Add(1)
	go func() { defer wg.Done(); leaderRes, leaderErr = g.Do(context.Background(), "hot", f.fetch) }()
	<-f.started

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := g.Do(ctx, "hot", f.fetch)
		waiterErr <- err
	}()
	waitFor(t, func() bool { return g.Stats().Waiters == 1 })
	cancel()

	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	// The fetch must still be alive for the leader.
	if got := g.Stats().InflightKeys; got != 1 {
		t.Fatalf("in-flight keys after waiter cancel = %d, want 1", got)
	}
	close(f.release)
	wg.Wait()
	if leaderErr != nil || string(leaderRes.Value) != "v" {
		t.Fatalf("leader got (%q, %v), want (v, nil)", leaderRes.Value, leaderErr)
	}
}

// TestAllAbandonCancelsFetch: when the leader and every waiter abandon,
// the fetch context is cancelled and the table entry removed, so the
// next miss on the key starts a fresh fetch.
func TestAllAbandonCancelsFetch(t *testing.T) {
	g := New(nil)
	fetchCancelled := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int64
	fetch := func(ctx context.Context) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			close(fetchCancelled)
			return nil, ctx.Err()
		}
		return []byte("fresh"), nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "hot", fetch)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning leader got %v, want context.Canceled", err)
	}
	select {
	case <-fetchCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("fetch context was not cancelled after every participant abandoned")
	}
	waitFor(t, func() bool { return g.Stats().InflightKeys == 0 })

	res, err := g.Do(context.Background(), "hot", fetch)
	if err != nil || string(res.Value) != "fresh" {
		t.Fatalf("post-abandon fetch got (%q, %v), want (fresh, nil)", res.Value, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fetch ran %d times, want 2 (abandoned + fresh)", got)
	}
}

// TestSetDuringFetchInvalidation: an Invalidate racing the fetch marks
// every participant's result stale so no one writes the fetched value
// back over the newer Set/Delete.
func TestSetDuringFetchInvalidation(t *testing.T) {
	g := New(nil)
	f := newGate([]byte("old"), nil)

	var wg sync.WaitGroup
	results := make([]Result, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], _ = g.Do(context.Background(), "hot", f.fetch) }()
	<-f.started
	wg.Add(1)
	go func() { defer wg.Done(); results[1], _ = g.Do(context.Background(), "hot", f.fetch) }()
	waitFor(t, func() bool { return g.Stats().Waiters == 1 })

	g.Invalidate("hot") // the Set landed while the fetch was in flight
	close(f.release)
	wg.Wait()

	for i, r := range results {
		if !r.Stale {
			t.Fatalf("caller %d: Stale=false after mid-fetch Invalidate", i)
		}
		if string(r.Value) != "old" {
			t.Fatalf("caller %d: value %q, want the fetched value", i, r.Value)
		}
	}
	if got := g.Stats().Invalidations; got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}
	// Invalidate with nothing in flight is a no-op.
	g.Invalidate("hot")
	if got := g.Stats().Invalidations; got != 1 {
		t.Fatalf("idle Invalidate counted: %d, want 1", got)
	}
}

func TestMaxWaitersShed(t *testing.T) {
	g := New(nil)
	g.maxWaiters = 2
	f := newGate([]byte("v"), nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = g.Do(context.Background(), "hot", f.fetch) }()
	<-f.started
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); _, _ = g.Do(context.Background(), "hot", f.fetch) }()
	}
	waitFor(t, func() bool { return g.Stats().Waiters == 2 })

	// The bound is reached: the next arrival sheds synchronously.
	_, err := g.Do(context.Background(), "hot", f.fetch)
	if !errors.Is(err, ErrTooManyWaiters) {
		t.Fatalf("over-bound waiter got %v, want ErrTooManyWaiters", err)
	}
	close(f.release)
	wg.Wait()

	st := g.Stats()
	if st.Sheds != 1 || st.FanIns != 2 || st.Fetches != 1 {
		t.Fatalf("stats = %+v, want 1 shed, 2 fan-ins, 1 fetch", st)
	}
}

func TestDistinctKeysDoNotCoalesce(t *testing.T) {
	g := New(nil)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i)
			res, err := g.Do(context.Background(), key, func(context.Context) ([]byte, error) {
				calls.Add(1)
				return []byte(key), nil
			})
			if err != nil || string(res.Value) != key {
				t.Errorf("key %s: (%q, %v)", key, res.Value, err)
			}
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 8 {
		t.Fatalf("fetches = %d, want 8 (one per distinct key)", got)
	}
}

func TestCoalesceWaitRecorded(t *testing.T) {
	col := telemetry.NewCollector()
	g := New(col)
	f := newGate([]byte("v"), nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = g.Do(context.Background(), "hot", f.fetch) }()
	<-f.started
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = g.Do(context.Background(), "hot", f.fetch) }()
	waitFor(t, func() bool { return g.Stats().Waiters == 1 })
	close(f.release)
	wg.Wait()

	b := col.Breakdown()
	if got := b[telemetry.StageCoalesceWait].Count; got != 1 {
		t.Fatalf("coalesce_wait count = %d, want 1 (one waiter)", got)
	}
	if b[telemetry.StageMissPenalty].Count != 0 {
		t.Fatal("group must not record miss_penalty; that is the caller's stage")
	}
}

func TestNilGroup(t *testing.T) {
	var g *Group
	if g.Coalescing() {
		t.Fatal("nil group reports Coalescing")
	}
	g.Invalidate("k") // must not panic
	if st := g.Stats(); st != (Stats{}) {
		t.Fatalf("nil group stats = %+v, want zero", st)
	}
	if !New(nil).Coalescing() {
		t.Fatal("live group reports !Coalescing")
	}
}

// TestStressSingleKeyRace hammers one key with 1k goroutines across
// several fetch windows under -race: every caller must get a value or
// a shed, the fetch count must stay far below the caller count, and
// the table must drain to empty.
func TestStressSingleKeyRace(t *testing.T) {
	g := New(nil)
	g.maxWaiters = 256
	var fetches atomic.Int64
	fetch := func(ctx context.Context) ([]byte, error) {
		fetches.Add(1)
		time.Sleep(200 * time.Microsecond)
		return []byte("v"), nil
	}

	const goroutines = 1000
	const rounds = 5
	var wg sync.WaitGroup
	var values, sheds atomic.Int64
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := g.Do(context.Background(), "hot", fetch)
				switch {
				case err == nil && string(res.Value) == "v":
					values.Add(1)
				case errors.Is(err, ErrTooManyWaiters):
					sheds.Add(1)
				default:
					t.Errorf("goroutine %d round %d: (%q, %v)", i, r, res.Value, err)
					return
				}
				if i%3 == 0 {
					g.Invalidate("hot")
				}
			}
		}(i)
	}
	wg.Wait()

	if got := values.Load() + sheds.Load(); got != goroutines*rounds {
		t.Fatalf("outcomes = %d, want %d", got, goroutines*rounds)
	}
	f := fetches.Load()
	if f == 0 || f > goroutines*rounds/10 {
		t.Fatalf("fetches = %d for %d calls; coalescing is not collapsing the herd", f, goroutines*rounds)
	}
	waitFor(t, func() bool {
		st := g.Stats()
		return st.InflightKeys == 0 && st.Waiters == 0
	})
	if st := g.Stats(); st.Sheds != sheds.Load() {
		t.Fatalf("stats.Sheds = %d, callers saw %d", st.Sheds, sheds.Load())
	}
	t.Logf("stress: %d calls -> %d fetches, %d fan-ins, %d sheds",
		goroutines*rounds, f, g.Stats().FanIns, g.Stats().Sheds)
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
