package cache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestShardsAccessor(t *testing.T) {
	c, err := New(Options{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Shards(); got != 8 {
		t.Errorf("Shards() = %d, want 8 (5 rounded up to a power of two)", got)
	}
	if n := DefaultShards(); n < 8 || n&(n-1) != 0 {
		t.Errorf("DefaultShards() = %d, want a power of two >= 8", n)
	}
}

func TestOnLockWaitObservesContention(t *testing.T) {
	c, err := New(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		waits   int
		waitSum float64
	)
	c.OnLockWait(func(seconds float64) {
		mu.Lock()
		waits++
		waitSum += seconds
		mu.Unlock()
	})

	// Hold the single shard's lock directly so the reader's TryLock fast
	// path misses and the timed slow path (with callback) runs.
	s := c.shards[0]
	s.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := getItem(c, "k")
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	s.mu.Unlock()
	if err := <-done; !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get under contention = %v, want ErrNotFound", err)
	}
	mu.Lock()
	gotWaits, gotSum := waits, waitSum
	mu.Unlock()
	if gotWaits != 1 || gotSum <= 0 {
		t.Errorf("lock-wait observer: waits=%d sum=%v, want 1 call with positive duration", gotWaits, gotSum)
	}

	// With the observer removed the contended slow path must still work
	// (and must not call the old observer).
	c.OnLockWait(nil)
	s.mu.Lock()
	go func() {
		_, err := getItem(c, "k")
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	s.mu.Unlock()
	if err := <-done; !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after observer removal = %v, want ErrNotFound", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if waits != gotWaits {
		t.Errorf("observer called %d times after removal, want %d", waits, gotWaits)
	}
}

func TestByteKeyValidation(t *testing.T) {
	c, err := New(Options{MaxItemSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	badKeys := [][]byte{
		nil,
		[]byte(""),
		[]byte(strings.Repeat("k", MaxKeyLen+1)),
		[]byte("has space"),
		[]byte("ctrl\x01char"),
		[]byte("del\x7fchar"),
	}
	for _, key := range badKeys {
		if _, _, _, err := c.GetInto(key, nil); !errors.Is(err, ErrKeyInvalid) {
			t.Errorf("GetInto(%q) = %v, want ErrKeyInvalid", key, err)
		}
		if err := c.SetBytes(key, []byte("v"), 0, 0); !errors.Is(err, ErrKeyInvalid) {
			t.Errorf("SetBytes(%q) = %v, want ErrKeyInvalid", key, err)
		}
	}
	if err := c.SetBytes([]byte("k"), make([]byte, 65), 0, 0); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversized SetBytes = %v, want ErrValueTooLarge", err)
	}
	if _, _, _, err := c.GetInto([]byte("absent"), nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetInto miss = %v, want ErrNotFound", err)
	}
}

// TestEveryVerbValidatesKey: every keyed verb goes through the one
// preamble, so each rejects a bad key the same way, and a bad key takes
// precedence over an oversized value.
func TestEveryVerbValidatesKey(t *testing.T) {
	c, err := New(Options{MaxItemSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := []byte("too large")
	calls := map[string]func([]byte) error{
		"Delete": c.Delete,
		"Touch":  func(k []byte) error { return c.Touch(k, 0) },
		"Incr":   func(k []byte) error { _, err := c.IncrDecr(k, 1); return err },
		"Get":    func(k []byte) error { _, _, _, err := c.GetInto(k, nil); return err },
		"GAT":    func(k []byte) error { _, _, _, err := c.GetAndTouch(k, 0, nil); return err },
	}
	for _, mode := range []StoreMode{ModeSet, ModeAdd, ModeReplace, ModeAppend, ModePrepend, ModeCAS} {
		calls[fmt.Sprintf("Store(%d)", mode)] = func(k []byte) error { return c.Store(mode, k, val, 0, 0, 1) }
	}
	for name, call := range calls {
		if err := call([]byte("bad key")); !errors.Is(err, ErrKeyInvalid) {
			t.Errorf("%s with invalid key = %v, want ErrKeyInvalid", name, err)
		}
	}
}

func TestByteExpiryPaths(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Options{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("ttl-key")
	if err := c.SetBytes(key, []byte("v1"), 3, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, flags, cas, err := c.GetInto(key, nil)
	if err != nil || string(got) != "v1" || flags != 3 || cas == 0 {
		t.Fatalf("GetInto before expiry = (%q, %d, %d, %v)", got, flags, cas, err)
	}
	clk.Advance(time.Second)
	if _, _, _, err := c.GetInto(key, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetInto after expiry = %v, want ErrNotFound", err)
	}
	if got := c.Stats().Expirations; got != 1 {
		t.Errorf("expirations = %d, want 1", got)
	}

	// Negative TTL: stored but never retrievable (memcached semantics).
	if err := c.SetBytes(key, []byte("v2"), 0, -time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.GetInto(key, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetInto of negative-TTL item = %v, want ErrNotFound", err)
	}
}
