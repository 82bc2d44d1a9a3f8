package cache

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fakeClock is a controllable time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func newTestCache(t *testing.T, opts Options) (*Cache, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	if opts.Clock == nil {
		opts.Clock = clk.Now
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

// item is what one read returns.
type item struct {
	Value []byte
	Flags uint32
	CAS   uint64
}

// getItem reads key through GetInto, the server's read path.
func getItem(c *Cache, key string) (item, error) {
	v, flags, cas, err := c.GetInto([]byte(key), nil)
	return item{Value: v, Flags: flags, CAS: cas}, err
}

// setItem stores value at key through SetBytes, the server's write path.
func setItem(c *Cache, key string, value []byte, flags uint32, ttl time.Duration) error {
	return c.SetBytes([]byte(key), value, flags, ttl)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{MaxBytes: -1}); err == nil {
		t.Error("negative MaxBytes accepted")
	}
	if _, err := New(Options{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := New(Options{MaxItemSize: -1}); err == nil {
		t.Error("negative MaxItemSize accepted")
	}
	c, err := New(Options{})
	if err != nil || c == nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	if err := setItem(c, "k", []byte("v"), 42, 0); err != nil {
		t.Fatal(err)
	}
	it, err := getItem(c, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v" || it.Flags != 42 {
		t.Errorf("item = %+v", it)
	}
	if it.CAS == 0 {
		t.Error("zero CAS token")
	}
}

func TestGetMiss(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	if _, err := getItem(c, "absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Gets != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestKeyValidation(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	bad := []string{"", strings.Repeat("x", 251), "has space", "has\ttab", "has\nnl", "del\x7f"}
	for _, k := range bad {
		if err := setItem(c, k, []byte("v"), 0, 0); !errors.Is(err, ErrKeyInvalid) {
			t.Errorf("key %q: err = %v", k, err)
		}
		if _, err := getItem(c, k); !errors.Is(err, ErrKeyInvalid) {
			t.Errorf("get key %q: err = %v", k, err)
		}
	}
	// 250 bytes is legal.
	if err := setItem(c, strings.Repeat("k", 250), []byte("v"), 0, 0); err != nil {
		t.Errorf("250-byte key rejected: %v", err)
	}
}

func TestValueSizeLimit(t *testing.T) {
	c, _ := newTestCache(t, Options{MaxItemSize: 10})
	if err := setItem(c, "k", make([]byte, 11), 0, 0); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("err = %v", err)
	}
	if err := setItem(c, "k", make([]byte, 10), 0, 0); err != nil {
		t.Errorf("at-limit value rejected: %v", err)
	}
	// A refused store copies nothing, and a bad key outranks a bad size.
	k, big, badKey := []byte("k"), make([]byte, 11), []byte("bad key")
	if n := testing.AllocsPerRun(100, func() { _ = c.SetBytes(k, big, 0, 0) }); n != 0 {
		t.Errorf("an oversized set allocated %v times, want 0", n)
	}
	if err := c.SetBytes(badKey, big, 0, 0); !errors.Is(err, ErrKeyInvalid) {
		t.Errorf("bad key with an oversized value: err = %v, want ErrKeyInvalid", err)
	}
}

func TestTTLExpiry(t *testing.T) {
	c, clk := newTestCache(t, Options{})
	if err := setItem(c, "k", []byte("v"), 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := getItem(c, "k"); err != nil {
		t.Fatalf("fresh item missing: %v", err)
	}
	clk.Advance(2 * time.Second)
	if _, err := getItem(c, "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired item err = %v", err)
	}
	if got := c.Stats().Expirations; got != 1 {
		t.Errorf("expirations = %d", got)
	}
}

func TestTouchExtendsLife(t *testing.T) {
	c, clk := newTestCache(t, Options{})
	_ = setItem(c, "k", []byte("v"), 0, time.Second)
	if err := c.Touch([]byte("k"), time.Hour); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if _, err := getItem(c, "k"); err != nil {
		t.Errorf("touched item gone: %v", err)
	}
	if err := c.Touch([]byte("absent"), time.Hour); !errors.Is(err, ErrNotFound) {
		t.Errorf("touch absent err = %v", err)
	}
}

func TestAddReplaceSemantics(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	if err := c.Store(ModeReplace, []byte("k"), []byte("v"), 0, 0, 0); !errors.Is(err, ErrNotStored) {
		t.Errorf("replace absent: %v", err)
	}
	if err := c.Store(ModeAdd, []byte("k"), []byte("v1"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(ModeAdd, []byte("k"), []byte("v2"), 0, 0, 0); !errors.Is(err, ErrNotStored) {
		t.Errorf("add existing: %v", err)
	}
	if err := c.Store(ModeReplace, []byte("k"), []byte("v3"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	it, _ := getItem(c, "k")
	if string(it.Value) != "v3" {
		t.Errorf("value = %q", it.Value)
	}
}

func TestAppendPrepend(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	if err := c.Store(ModeAppend, []byte("k"), []byte("x"), 0, 0, 0); !errors.Is(err, ErrNotStored) {
		t.Errorf("append absent: %v", err)
	}
	_ = setItem(c, "k", []byte("mid"), 7, 0)
	if err := c.Store(ModeAppend, []byte("k"), []byte("-end"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(ModePrepend, []byte("k"), []byte("start-"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	it, _ := getItem(c, "k")
	if string(it.Value) != "start-mid-end" {
		t.Errorf("value = %q", it.Value)
	}
	if it.Flags != 7 {
		t.Errorf("flags not preserved: %d", it.Flags)
	}
}

func TestCompareAndSwap(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	_ = setItem(c, "k", []byte("v1"), 0, 0)
	it, _ := getItem(c, "k")
	if err := c.Store(ModeCAS, []byte("k"), []byte("v2"), 0, 0, it.CAS); err != nil {
		t.Fatal(err)
	}
	// Stale token now fails.
	if err := c.Store(ModeCAS, []byte("k"), []byte("v3"), 0, 0, it.CAS); !errors.Is(err, ErrExists) {
		t.Errorf("stale cas err = %v", err)
	}
	if err := c.Store(ModeCAS, []byte("absent"), []byte("v"), 0, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("cas absent err = %v", err)
	}
	it2, _ := getItem(c, "k")
	if string(it2.Value) != "v2" {
		t.Errorf("value = %q", it2.Value)
	}
}

func TestDelete(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	_ = setItem(c, "k", []byte("v"), 0, 0)
	if err := c.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	if _, err := getItem(c, "k"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted key still present")
	}
}

func TestIncrDecr(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	_ = setItem(c, "n", []byte("10"), 0, 0)
	got, err := c.IncrDecr([]byte("n"), 5)
	if err != nil || got != 15 {
		t.Fatalf("incr: %v %v", got, err)
	}
	got, err = c.IncrDecr([]byte("n"), -20) // saturates at 0
	if err != nil || got != 0 {
		t.Fatalf("decr: %v %v", got, err)
	}
	_ = setItem(c, "s", []byte("abc"), 0, 0)
	if _, err := c.IncrDecr([]byte("s"), 1); !errors.Is(err, ErrNotNumeric) {
		t.Errorf("non-numeric err = %v", err)
	}
	if _, err := c.IncrDecr([]byte("absent"), 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("absent err = %v", err)
	}
	it, _ := getItem(c, "n")
	if string(it.Value) != "0" {
		t.Errorf("stored value = %q", it.Value)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One shard, budget for ~3 small items.
	c, _ := newTestCache(t, Options{Shards: 1, MaxBytes: 3 * (2 + 1 + itemOverhead), MaxItemSize: 100})
	_ = setItem(c, "k1", []byte("a"), 0, 0)
	_ = setItem(c, "k2", []byte("b"), 0, 0)
	_ = setItem(c, "k3", []byte("c"), 0, 0)
	// Touch k1 so k2 is LRU, then insert k4 -> k2 evicted.
	if _, err := getItem(c, "k1"); err != nil {
		t.Fatal(err)
	}
	_ = setItem(c, "k4", []byte("d"), 0, 0)
	if _, err := getItem(c, "k2"); !errors.Is(err, ErrNotFound) {
		t.Error("LRU victim k2 survived")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, err := getItem(c, k); err != nil {
			t.Errorf("%s evicted unexpectedly: %v", k, err)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions = %d", got)
	}
}

func TestEvictionRespectsBudget(t *testing.T) {
	c, _ := newTestCache(t, Options{Shards: 1, MaxBytes: 1000, MaxItemSize: 100})
	for i := 0; i < 100; i++ {
		_ = setItem(c, fmt.Sprintf("key-%03d", i), bytes.Repeat([]byte("x"), 50), 0, 0)
	}
	if got := c.Stats().Bytes; got > 1000+100+itemOverhead {
		t.Errorf("bytes = %d exceeds budget", got)
	}
	if c.Stats().Items == 0 {
		t.Error("everything evicted")
	}
}

func TestFlushAll(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	for i := 0; i < 10; i++ {
		_ = setItem(c, fmt.Sprintf("k%d", i), []byte("v"), 0, 0)
	}
	c.FlushAll()
	if c.Stats().Items != 0 || c.Stats().Bytes != 0 {
		t.Errorf("len=%d bytes=%d after flush", c.Stats().Items, c.Stats().Bytes)
	}
	if _, err := getItem(c, "k0"); !errors.Is(err, ErrNotFound) {
		t.Error("item survived flush")
	}
}

func TestStatsCounters(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	_ = setItem(c, "a", []byte("1"), 0, 0)
	_, _ = getItem(c, "a")
	_, _ = getItem(c, "b")
	_ = c.Delete([]byte("a"))
	st := c.Stats()
	if st.Sets != 1 || st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Deletes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	_ = setItem(c, "k", []byte("abc"), 0, 0)
	it, _ := getItem(c, "k")
	it.Value[0] = 'X'
	it2, _ := getItem(c, "k")
	if string(it2.Value) != "abc" {
		t.Error("Get exposed internal buffer")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := newTestCache(t, Options{Shards: 8, MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("w%d-%d", w, i%50)
				_ = setItem(c, k, []byte("v"), 0, 0)
				_, _ = getItem(c, k)
				if i%10 == 0 {
					_ = c.Delete([]byte(k))
				}
				if i%25 == 0 {
					_, _ = c.IncrDecr([]byte("ctr"), 1)
				}
			}
		}()
	}
	wg.Wait()
}

// Property: after Set(k, v), Get(k) returns v (until expiry/eviction
// pressure, absent here).
func TestPropertyGetAfterSet(t *testing.T) {
	c, _ := newTestCache(t, Options{MaxBytes: 64 << 20})
	f := func(rawKey []byte, value []byte) bool {
		key := sanitizeKey(rawKey)
		if key == "" {
			return true
		}
		if err := setItem(c, key, value, 3, 0); err != nil {
			return false
		}
		it, err := getItem(c, key)
		if err != nil {
			return false
		}
		return bytes.Equal(it.Value, value) && it.Flags == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Len() and Bytes() never go negative and bytes stay within
// budget plus one item of slack.
func TestPropertyAccountingInvariants(t *testing.T) {
	c, _ := newTestCache(t, Options{Shards: 2, MaxBytes: 4096, MaxItemSize: 256})
	f := func(ops []uint8) bool {
		for i, op := range ops {
			key := fmt.Sprintf("k%d", int(op)%17)
			switch op % 4 {
			case 0:
				_ = setItem(c, key, bytes.Repeat([]byte("v"), int(op)%200), 0, 0)
			case 1:
				_, _ = getItem(c, key)
			case 2:
				_ = c.Delete([]byte(key))
			case 3:
				_ = setItem(c, key, []byte{byte(i)}, 0, 0)
			}
			if c.Stats().Items < 0 || c.Stats().Bytes < 0 {
				return false
			}
		}
		// Per-shard budget is MaxBytes/shards but never below one item;
		// 2 shards * (256+64) slack.
		return c.Stats().Bytes <= 4096+2*(256+itemOverhead)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sanitizeKey(raw []byte) string {
	var b strings.Builder
	for _, ch := range raw {
		if ch > ' ' && ch != 0x7f && b.Len() < MaxKeyLen {
			b.WriteByte(ch)
		}
	}
	return b.String()
}

func TestShardStatsAndLockWaitCounters(t *testing.T) {
	c, err := New(Options{Shards: 4, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := setItem(c, key, []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	ss := c.ShardStats()
	if len(ss) != c.Shards() {
		t.Fatalf("ShardStats has %d entries, want %d", len(ss), c.Shards())
	}
	var items, bytes int64
	for i, s := range ss {
		if s.MaxBytes <= 0 {
			t.Errorf("shard %d MaxBytes = %d", i, s.MaxBytes)
		}
		items += s.Items
		bytes += s.Bytes
	}
	if items != c.Stats().Items {
		t.Errorf("shard items sum %d != Len %d", items, c.Stats().Items)
	}
	if bytes != c.Stats().Bytes {
		t.Errorf("shard bytes sum %d != Bytes %d", bytes, c.Stats().Bytes)
	}
	// Contend one shard hard enough that at least one TryLock misses.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				_, _ = getItem(c, "key-1")
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.LockWaits < 0 || st.LockWaitSeconds < 0 {
		t.Errorf("negative lock-wait counters: %+v", st)
	}
	if st.LockWaits > 0 && st.LockWaitSeconds <= 0 {
		t.Errorf("lock waits counted (%d) but no blocked time", st.LockWaits)
	}
}

func TestGetAndTouch(t *testing.T) {
	c, clk := newTestCache(t, Options{})
	_ = setItem(c, "k", []byte("v"), 9, time.Second)
	dst := []byte("kept:")
	v, flags, cas, err := c.GetAndTouch([]byte("k"), time.Hour, dst)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "kept:v" || flags != 9 || cas == 0 {
		t.Errorf("gat = (%q, %d, %d), want the value appended to dst, flags 9, a CAS", v, flags, cas)
	}
	clk.Advance(10 * time.Second) // would have expired without the touch
	if _, err := getItem(c, "k"); err != nil {
		t.Errorf("gat did not extend life: %v", err)
	}
	if _, _, _, err := c.GetAndTouch([]byte("absent"), time.Hour, nil); err != ErrNotFound {
		t.Errorf("gat absent: %v", err)
	}
	if _, _, _, err := c.GetAndTouch(nil, time.Hour, nil); err != ErrKeyInvalid {
		t.Errorf("gat invalid key: %v", err)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2 and 1: gat counts as a read", st.Hits, st.Misses)
	}
}

// TestGetAndTouchZeroAlloc: gat reads into the caller's buffer as get
// does, so a pre-sized destination costs nothing.
func TestGetAndTouchZeroAlloc(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	key := []byte("hotkey")
	if err := c.SetBytes(key, bytes.Repeat([]byte("v"), 100), 0, 0); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(200, func() {
		v, _, _, err := c.GetAndTouch(key, time.Hour, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		dst = v[:0]
	})
	if allocs != 0 {
		t.Errorf("GetAndTouch allocates %v times per call, want 0", allocs)
	}
}

// TestStoreModes walks one key through every storage mode and checks
// what each leaves behind: value, flags, CAS and the Sets count. The
// concatenations pass an already-expired TTL and flags 9, both of which
// they must ignore.
func TestStoreModes(t *testing.T) {
	c, clk := newTestCache(t, Options{MaxItemSize: 8})
	k := []byte("k")
	const stale = 999 // a token the cache never handed out
	steps := []struct {
		mode      StoreMode
		value     string
		flags     uint32
		ttl       time.Duration
		cas       uint64 // 0: the stored token
		want      error
		wantValue string // "": the key is absent after the step
		wantFlags uint32
	}{
		{ModeReplace, "r", 1, 0, 0, ErrNotStored, "", 0},
		{ModeAppend, "a", 1, 0, 0, ErrNotStored, "", 0},
		{ModeCAS, "c", 1, 0, stale, ErrNotFound, "", 0},
		{ModeAdd, "v", 3, 0, 0, nil, "v", 3},
		{ModeAdd, "w", 4, 0, 0, ErrNotStored, "v", 3},
		{ModeAppend, "z", 9, -time.Second, 0, nil, "vz", 3},
		{ModePrepend, "y", 9, -time.Second, 0, nil, "yvz", 3},
		{ModeAppend, "123456", 9, 0, 0, ErrValueTooLarge, "yvz", 3},
		{ModeCAS, "x", 5, 0, stale, ErrExists, "yvz", 3},
		{ModeCAS, "x", 5, 0, 0, nil, "x", 5},
		{ModeReplace, "123456789", 6, 0, 0, ErrValueTooLarge, "x", 5},
		{ModeReplace, "r", 6, 0, 0, nil, "r", 6},
		{ModeSet, "s", 7, time.Minute, 0, nil, "s", 7},
	}
	sets := int64(0)
	for i, st := range steps {
		_, _, before, _ := c.GetInto(k, nil)
		cas := before
		if st.cas != 0 {
			cas = st.cas
		}
		if err := c.Store(st.mode, k, []byte(st.value), st.flags, st.ttl, cas); !errors.Is(err, st.want) {
			t.Fatalf("step %d: mode %d = %v, want %v", i, st.mode, err, st.want)
		}
		if st.want == nil {
			sets++
		}
		v, flags, after, err := c.GetInto(k, nil)
		if st.wantValue == "" {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: key present (%q, %v), want absent", i, v, err)
			}
			continue
		}
		if string(v) != st.wantValue || flags != st.wantFlags {
			t.Fatalf("step %d: stored (%q, %d, %v), want (%q, %d)", i, v, flags, err, st.wantValue, st.wantFlags)
		}
		if (st.want == nil) == (after == before) {
			t.Fatalf("step %d: CAS %d -> %d; a store takes a fresh token, a refusal keeps it", i, before, after)
		}
	}
	if got := c.Stats().Sets; got != sets {
		t.Errorf("Sets = %d, want %d", got, sets)
	}
	clk.Advance(30 * time.Second)
	if _, _, _, err := c.GetInto(k, nil); err != nil {
		t.Errorf("30 s into the set's minute: %v", err)
	}
	clk.Advance(time.Minute)
	if _, _, _, err := c.GetInto(k, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("past the set's minute: %v, want ErrNotFound", err)
	}
}

// TestStoreExpirations: set overwrites without a lookup, so an expired
// entry it replaces is not counted as an expiration; every other mode
// looks the key up, and reaps and counts one.
func TestStoreExpirations(t *testing.T) {
	c, clk := newTestCache(t, Options{})
	k := []byte("k")
	if err := c.SetBytes(k, []byte("v"), 0, time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if err := c.SetBytes(k, []byte("v"), 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Expirations; got != 0 {
		t.Fatalf("set over an expired entry: expirations = %d, want 0", got)
	}
	clk.Advance(2 * time.Second)
	if err := c.Store(ModeReplace, k, []byte("w"), 0, 0, 0); !errors.Is(err, ErrNotStored) {
		t.Fatalf("replace of an expired key = %v, want ErrNotStored", err)
	}
	if got := c.Stats().Expirations; got != 1 {
		t.Errorf("replace over an expired entry: expirations = %d, want 1", got)
	}
}

// TestStoreReadsClockOnlyWhenNeeded: a store reads the clock for a TTL,
// or when its eviction walk meets an item that carries an expiry, and
// otherwise not at all, so a TTL-less set that evicts nothing costs no
// clock read. The walk's one reading still reaps an expired victim as an
// expiration.
func TestStoreReadsClockOnlyWhenNeeded(t *testing.T) {
	clk := newFakeClock()
	reads := 0
	c, _ := newTestCache(t, Options{Shards: 1, MaxBytes: 3 * (2 + 1 + itemOverhead), MaxItemSize: 100,
		Clock: func() time.Time { reads++; return clk.Now() }})
	step := func(what string, want int, do func() error) {
		t.Helper()
		reads = 0
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if reads != want {
			t.Errorf("%s read the clock %d times, want %d", what, reads, want)
		}
	}
	step("a TTL-less set", 0, func() error { return setItem(c, "k1", []byte("a"), 0, 0) })
	step("a TTL-less overwrite", 0, func() error { return setItem(c, "k1", []byte("b"), 0, 0) })
	step("a set with a TTL", 1, func() error { return setItem(c, "k2", []byte("c"), 0, time.Second) })
	step("an incr", 0, func() error {
		_ = setItem(c, "k3", []byte("1"), 0, 0)
		_, err := c.IncrDecr([]byte("k3"), 1)
		return err
	})
	step("a TTL-less set that evicts a TTL-less item", 0, func() error { return setItem(c, "k4", []byte("d"), 0, 0) })
	clk.Advance(2 * time.Second)
	step("a TTL-less set whose walk meets an expired item", 1, func() error { return setItem(c, "k5", []byte("e"), 0, 0) })
	if st := c.Stats(); st.Evictions != 1 || st.Expirations != 1 {
		t.Errorf("evictions, expirations = %d, %d; want 1, 1", st.Evictions, st.Expirations)
	}
}

// TestContains: presence is answered without counting a hit or a miss,
// and an expired key is absent.
func TestContains(t *testing.T) {
	c, clk := newTestCache(t, Options{})
	if err := c.SetBytes([]byte("k"), []byte("v"), 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Contains([]byte("k")) || c.Contains([]byte("absent")) || c.Contains([]byte("bad key")) {
		t.Fatal("Contains disagrees with what was stored")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("Contains counted %d hits and %d misses, want none", s.Hits, s.Misses)
	}
	clk.Advance(2 * time.Second)
	if c.Contains([]byte("k")) {
		t.Fatal("Contains reported an expired key")
	}
}

// TestStoreCopiesValue: the cache keeps no reference to the caller's
// value buffer in any mode, so the protocol path may reuse its scratch.
func TestStoreCopiesValue(t *testing.T) {
	c, _ := newTestCache(t, Options{})
	buf := []byte("abc")
	for _, mode := range []StoreMode{ModeSet, ModeReplace, ModeAppend, ModePrepend} {
		if err := c.Store(mode, []byte("k"), buf, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	copy(buf, "XYZ")
	if v, _, _, _ := c.GetInto([]byte("k"), nil); string(v) != "abcabcabc" {
		t.Errorf("stored value = %q, want abcabcabc untouched by the caller's write", v)
	}
}
