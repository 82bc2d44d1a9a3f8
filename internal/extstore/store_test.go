package extstore

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"memqlat/internal/testkit"
)

// fakeClock is a mutable time source for expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// settles fails t unless the stores it opens leave no goroutine (the
// eviction-queue writer) or descriptor (segment files) behind once they
// are closed. Called before the first Open, its check runs after the
// test's defers and after the Close cleanups registered later.
func settles(t *testing.T) {
	settled := testkit.Settles(t)
	t.Cleanup(func() { settled("extstore after Close") })
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	settles(t)
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// put appends key→value to the log and indexes it synchronously, the
// way the eviction queue's writer applies a PutAsync.
func (s *Store) put(key, value []byte, flags uint32, expires time.Time) error {
	if err := validateKey(key); err != nil {
		return err
	}
	if s.closed.Load() {
		return ErrClosed
	}
	exp := nano(expires)
	if exp != 0 && s.clock().UnixNano() >= exp {
		return nil // already expired: nothing worth writing
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return putLocked(s, key, value, flags, exp)
}

// getInto is Lookup without the expiry deadline.
func (s *Store) getInto(key, dst []byte) ([]byte, uint32, error) {
	value, flags, _, err := s.Lookup(key, dst)
	return value, flags, err
}

// compact runs one full reclamation pass regardless of thresholds:
// every sealed segment with any dead bytes is rewritten.
func (s *Store) compact() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.compacting {
		return nil
	}
	s.compacting = true
	defer func() { s.compacting = false }()
	for {
		victim, ratio := s.pickVictimLocked()
		if victim == nil || ratio <= 0 {
			return nil
		}
		if err := s.compactSegmentLocked(victim); err != nil {
			return err
		}
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s := mustOpen(t, Options{})
	cases := []struct {
		key   string
		value string
		flags uint32
	}{
		{"alpha", "value-one", 7},
		{"beta", "", 0}, // empty value
		{"gamma", string(bytes.Repeat([]byte{0xAB}, 4096)), 42}, // binary
	}
	for _, c := range cases {
		if err := s.put([]byte(c.key), []byte(c.value), c.flags, time.Time{}); err != nil {
			t.Fatalf("Put(%q): %v", c.key, err)
		}
	}
	for _, c := range cases {
		v, flags, err := s.getInto([]byte(c.key), nil)
		if err != nil {
			t.Fatalf("GetInto(%q): %v", c.key, err)
		}
		if string(v) != c.value || flags != c.flags {
			t.Fatalf("GetInto(%q) = %d bytes flags=%d, want %d bytes flags=%d",
				c.key, len(v), flags, len(c.value), c.flags)
		}
	}
	if _, _, err := s.getInto([]byte("absent"), nil); err != ErrNotFound {
		t.Fatalf("GetInto(absent) err = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Keys != 3 {
		t.Fatalf("stats = %+v, want 3 hits 1 miss 3 keys", st)
	}
}

func TestGetIntoAppendsToDst(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.put([]byte("k"), []byte("world"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "hello "...)
	v, _, err := s.getInto([]byte("k"), dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello world" {
		t.Fatalf("GetInto appended %q, want %q", v, "hello world")
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	s := mustOpen(t, Options{})
	key := []byte("k")
	for i := 0; i < 10; i++ {
		if err := s.put(key, []byte(fmt.Sprintf("v%d", i)), uint32(i), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	v, flags, err := s.getInto(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v9" || flags != 9 {
		t.Fatalf("got %q flags=%d, want v9 flags=9", v, flags)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if st := s.Stats(); st.DeadBytes == 0 {
		t.Fatal("overwrites should accumulate dead bytes")
	}
}

func TestDelete(t *testing.T) {
	s := mustOpen(t, Options{})
	key := []byte("k")
	if s.Delete(key) {
		t.Fatal("Delete(absent) = true, want false")
	}
	if err := s.put(key, []byte("v"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(key) {
		t.Fatal("Delete(present) = false, want true")
	}
	if _, _, err := s.getInto(key, nil); err != ErrNotFound {
		t.Fatalf("Get after delete err = %v, want ErrNotFound", err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}

func TestExpiry(t *testing.T) {
	clk := newFakeClock()
	s := mustOpen(t, Options{Clock: clk.Now})
	key := []byte("k")
	if err := s.put(key, []byte("v"), 0, clk.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.getInto(key, nil); err != nil {
		t.Fatalf("fresh get: %v", err)
	}
	clk.Advance(2 * time.Minute)
	if _, _, err := s.getInto(key, nil); err != ErrNotFound {
		t.Fatalf("expired get err = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
	// Storing an already-expired value is a silent no-op.
	if err := s.put([]byte("dead"), []byte("v"), 0, clk.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.getInto([]byte("dead"), nil); err != ErrNotFound {
		t.Fatalf("pre-expired put should not be stored, got err = %v", err)
	}
}

func TestValidation(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.put(nil, []byte("v"), 0, time.Time{}); err != ErrKeyInvalid {
		t.Fatalf("empty key err = %v, want ErrKeyInvalid", err)
	}
	long := bytes.Repeat([]byte("k"), MaxKeyLen+1)
	if err := s.put(long, []byte("v"), 0, time.Time{}); err != ErrKeyInvalid {
		t.Fatalf("long key err = %v, want ErrKeyInvalid", err)
	}
	if s.PutAsync("k", string(make([]byte, maxValueBytes+1)), 0, time.Time{}) {
		t.Fatal("PutAsync accepted a value over maxValueBytes")
	}
	if d := s.Stats().Drops; d != 1 {
		t.Fatalf("Drops = %d after an oversized value, want 1", d)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	s := mustOpen(t, Options{SegmentBytes: 4 << 10, MaxBytes: 1 << 20})
	val := bytes.Repeat([]byte("x"), 256)
	// Hammer a small key set so most bytes in sealed segments are
	// overwritten garbage.
	for round := 0; round < 40; round++ {
		for i := 0; i < 16; i++ {
			key := []byte(fmt.Sprintf("key-%02d", i))
			if err := s.put(key, val, uint32(round), time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("expected compactions, stats = %+v", st)
	}
	if st.Keys != 16 {
		t.Fatalf("Keys = %d, want 16", st.Keys)
	}
	for i := 0; i < 16; i++ {
		key := []byte(fmt.Sprintf("key-%02d", i))
		v, flags, err := s.getInto(key, nil)
		if err != nil {
			t.Fatalf("Get(%s) after compaction: %v", key, err)
		}
		if !bytes.Equal(v, val) || flags != 39 {
			t.Fatalf("Get(%s) = %d bytes flags=%d, want %d bytes flags=39", key, len(v), flags, len(val))
		}
	}
	// Live bytes are 16 records; the footprint must be a small
	// multiple of that, not the full write history.
	live := int64(16) * frameSize(6, len(val))
	if got := s.Bytes(); got > 8*live+2*(4<<10) {
		t.Fatalf("Bytes = %d, want near live set %d", got, live)
	}
}

func TestCompactionHonorsTTL(t *testing.T) {
	clk := newFakeClock()
	s := mustOpen(t, Options{SegmentBytes: 4 << 10, Clock: clk.Now})
	val := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("ttl-%03d", i))
		if err := s.put(key, val, 0, clk.Now().Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Hour)
	// Reads observe the expirations, crediting dead bytes to their
	// segments so compaction has something to reclaim.
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("ttl-%03d", i))
		if _, _, err := s.getInto(key, nil); err != ErrNotFound {
			t.Fatalf("expired Get(%s) err = %v, want ErrNotFound", key, err)
		}
	}
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Relocated != 0 {
		t.Fatalf("Relocated = %d, want 0 (every record expired)", st.Relocated)
	}
	if st.Compactions == 0 {
		t.Fatal("expected the all-dead sealed segments to be compacted away")
	}
	if st.Keys != 0 {
		t.Fatalf("Keys = %d, want 0", st.Keys)
	}
}

func TestBudgetDropsOldestSegments(t *testing.T) {
	s := mustOpen(t, Options{SegmentBytes: 4 << 10, MaxBytes: 8 << 10})
	val := bytes.Repeat([]byte("x"), 512)
	// Unique keys: nothing is dead, so the only way to stay under
	// budget is dropping whole old segments.
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("uniq-%04d", i))
		if err := s.put(key, val, 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DroppedSegments == 0 {
		t.Fatalf("expected dropped segments, stats = %+v", st)
	}
	if got := s.Bytes(); got > s.opts.MaxBytes+s.opts.SegmentBytes {
		t.Fatalf("Bytes = %d, want <= budget %d plus one segment slack", got, s.opts.MaxBytes)
	}
	// The newest keys must still be present.
	if _, _, err := s.getInto([]byte("uniq-0199"), nil); err != nil {
		t.Fatalf("newest key lost: %v", err)
	}
}

func TestPutAsyncAndFlush(t *testing.T) {
	s := mustOpen(t, Options{})
	for i := 0; i < 64; i++ {
		if !s.PutAsync(fmt.Sprintf("async-%02d", i), "v", 0, time.Time{}) {
			t.Fatalf("PutAsync(%d) rejected", i)
		}
	}
	s.Flush()
	if n := s.Len(); n != 64 {
		t.Fatalf("Len = %d after flush, want 64", n)
	}
}

// TestFlushAllIsFinal: a write queued before FlushAll — in the queue or
// in the writer's hand, parked on the write lock — never lands after it,
// so a flushed key stays gone; a write queued after it lands.
func TestFlushAllIsFinal(t *testing.T) {
	s := mustOpen(t, Options{})
	s.wmu.Lock() // the writer takes the first write and parks on the lock
	for i := range writeQueueDepth {
		if !s.PutAsync(fmt.Sprintf("pre-%04d", i), "v", 0, time.Time{}) {
			t.Fatalf("PutAsync(%d) rejected", i)
		}
	}
	flushed := make(chan error, 1)
	go func() { flushed <- s.FlushAll() }()
	// Let FlushAll queue on the lock behind the writer: the writes it
	// overtakes are the ones a racy flush would let land afterwards.
	time.Sleep(10 * time.Millisecond)
	s.wmu.Unlock()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d after FlushAll: writes queued before it landed after it", n)
	}
	if _, _, _, err := s.Lookup([]byte(fmt.Sprintf("pre-%04d", writeQueueDepth-1)), nil); err != ErrNotFound {
		t.Fatalf("Lookup of a flushed key err = %v, want ErrNotFound", err)
	}
	if !s.PutAsync("post", "v", 0, time.Time{}) {
		t.Fatal("PutAsync after FlushAll rejected")
	}
	s.Flush()
	if v, _, _, err := s.Lookup([]byte("post"), nil); err != nil || string(v) != "v" {
		t.Fatalf("Lookup(post) = %q, %v; a write queued after the flush must land", v, err)
	}
}

func TestPutAsyncShedsWhenFull(t *testing.T) {
	s := mustOpen(t, Options{queueDepth: 1})
	// Stall the writer by holding the write lock, then overfill.
	s.wmu.Lock()
	accepted := 0
	for i := 0; i < 64; i++ {
		if s.PutAsync(fmt.Sprintf("shed-%02d", i), "v", 0, time.Time{}) {
			accepted++
		}
	}
	s.wmu.Unlock()
	if accepted >= 64 {
		t.Fatal("bounded queue accepted every write while the writer was stalled")
	}
	if st := s.Stats(); st.Drops == 0 {
		t.Fatalf("Drops = 0, want > 0")
	}
}

func TestCorruptRecordDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	key := []byte("victim")
	val := bytes.Repeat([]byte("v"), 128)
	if err := s.put(key, val, 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the value region of the only record.
	f, err := os.OpenFile(s.active.path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(segHeaderSize + frameHeaderSize + len(key) + 10)
	if _, err := f.WriteAt([]byte{0xFF ^ 'v'}, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := s.getInto(key, nil); err != ErrCorrupt {
		t.Fatalf("corrupt get err = %v, want ErrCorrupt", err)
	}
	// The poisoned entry is dropped: next read is a plain miss.
	if _, _, err := s.getInto(key, nil); err != ErrNotFound {
		t.Fatalf("second get err = %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
}

func TestClosedStoreRejects(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.put([]byte("k"), []byte("v"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.getInto([]byte("k"), nil); err != ErrClosed {
		t.Fatalf("Get after close err = %v, want ErrClosed", err)
	}
	if err := s.put([]byte("k"), []byte("v"), 0, time.Time{}); err != ErrClosed {
		t.Fatalf("Put after close err = %v, want ErrClosed", err)
	}
	if s.PutAsync("k", "v", 0, time.Time{}) {
		t.Fatal("PutAsync after close accepted")
	}
	if err := s.Close(); err != ErrClosed {
		t.Fatalf("double close err = %v, want ErrClosed", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir should fail")
	}
}

func TestLookupFlushAllAndAccessors(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Clock: clk.Now})
	if got := FrameCost(5, 100); got != frameHeaderSize+105 {
		t.Fatalf("FrameCost(5, 100) = %d, want %d", got, frameHeaderSize+105)
	}

	deadline := clk.Now().Add(time.Minute)
	if err := s.put([]byte("ttl"), []byte("soon"), 9, deadline); err != nil {
		t.Fatal(err)
	}
	if err := s.put([]byte("keep"), []byte("forever"), 3, time.Time{}); err != nil {
		t.Fatal(err)
	}
	v, flags, exp, err := s.Lookup([]byte("ttl"), nil)
	if err != nil || string(v) != "soon" || flags != 9 {
		t.Fatalf("Lookup(ttl) = %q flags=%d err=%v", v, flags, err)
	}
	if !exp.Equal(deadline) {
		t.Fatalf("Lookup(ttl) expires = %v, want %v", exp, deadline)
	}
	if _, _, exp, err := s.Lookup([]byte("keep"), nil); err != nil || !exp.IsZero() {
		t.Fatalf("Lookup(keep) expires = %v err = %v, want zero deadline", exp, err)
	}
	if _, _, _, err := s.Lookup([]byte("absent"), nil); err != ErrNotFound {
		t.Fatalf("Lookup(absent) err = %v, want ErrNotFound", err)
	}
	clk.Advance(2 * time.Minute)
	if _, _, _, err := s.Lookup([]byte("ttl"), nil); err != ErrNotFound {
		t.Fatalf("Lookup past deadline err = %v, want ErrNotFound", err)
	}

	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len after FlushAll = %d, want 0", s.Len())
	}
	if _, _, err := s.getInto([]byte("keep"), nil); err != ErrNotFound {
		t.Fatalf("GetInto after FlushAll err = %v, want ErrNotFound", err)
	}
	// The flushed tier stays writable: a fresh active segment accepts
	// new puts and serves them back.
	if err := s.put([]byte("after"), []byte("flush"), 1, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.getInto([]byte("after"), nil); err != nil || string(v) != "flush" {
		t.Fatalf("GetInto after re-put = %q, %v", v, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushAll(); err != ErrClosed {
		t.Fatalf("FlushAll after close err = %v, want ErrClosed", err)
	}
	if _, _, _, err := s.Lookup([]byte("after"), nil); err != ErrClosed {
		t.Fatalf("Lookup after close err = %v, want ErrClosed", err)
	}
}
