package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestSecondChanceOrder pins the eviction policy on one shard that holds
// three items: which entry goes, in what order, and what the OnEvict
// observer sees on the way.
func TestSecondChanceOrder(t *testing.T) {
	budget := 3 * ItemCost(1, 1)
	set := func(t *testing.T, c *Cache, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if err := setItem(c, k, []byte("v"), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(t *testing.T, c *Cache, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if _, err := getItem(c, k); err != nil {
				t.Fatalf("get %s: %v", k, err)
			}
		}
	}

	cases := []struct {
		name        string
		run         func(t *testing.T, c *Cache, clk *fakeClock)
		wantEvicted []string // OnEvict order
		wantAlive   []string
		wantExpired int64
	}{
		{
			name: "unread entries go in insertion order",
			run: func(t *testing.T, c *Cache, _ *fakeClock) {
				set(t, c, "a", "b", "c", "d", "e")
			},
			wantEvicted: []string{"a", "b"},
			wantAlive:   []string{"c", "d", "e"},
		},
		{
			name: "a read tail entry is passed over and the unread one behind it goes",
			run: func(t *testing.T, c *Cache, _ *fakeClock) {
				set(t, c, "a", "b", "c")
				read(t, c, "a")
				set(t, c, "d")
			},
			wantEvicted: []string{"b"},
			wantAlive:   []string{"a", "c", "d"},
		},
		{
			name: "the reprieve lasts exactly one lap",
			run: func(t *testing.T, c *Cache, _ *fakeClock) {
				set(t, c, "a", "b", "c")
				read(t, c, "a")
				// d: a is reprieved behind c, b goes. e: c goes. f: a is at
				// the tail again and was not read since, so it goes.
				set(t, c, "d", "e", "f")
			},
			wantEvicted: []string{"b", "c", "a"},
			wantAlive:   []string{"d", "e", "f"},
		},
		{
			name: "a second read earns a second lap",
			run: func(t *testing.T, c *Cache, _ *fakeClock) {
				set(t, c, "a", "b", "c")
				read(t, c, "a")
				set(t, c, "d", "e")
				read(t, c, "a")
				set(t, c, "f")
			},
			wantEvicted: []string{"b", "c", "d"},
			wantAlive:   []string{"a", "e", "f"},
		},
		{
			name: "when every entry was read the lap ends and the oldest goes",
			run: func(t *testing.T, c *Cache, _ *fakeClock) {
				set(t, c, "a", "b", "c")
				read(t, c, "c", "b", "a") // read order is not remembered
				set(t, c, "d")
			},
			wantEvicted: []string{"a"},
			wantAlive:   []string{"b", "c", "d"},
		},
		{
			name: "every read path sets the bit",
			run: func(t *testing.T, c *Cache, _ *fakeClock) {
				set(t, c, "a", "b", "c", "d")
				if _, _, _, err := c.GetInto([]byte("b"), nil); err != nil {
					t.Fatal(err)
				}
				if _, _, _, err := c.GetAndTouch([]byte("c"), 0, nil); err != nil {
					t.Fatal(err)
				}
				if err := c.Touch([]byte("d"), 0); err != nil {
					t.Fatal(err)
				}
				set(t, c, "e") // b, c, d reprieved in turn, then b goes
			},
			wantEvicted: []string{"a", "b"},
			wantAlive:   []string{"c", "d", "e"},
		},
		{
			name: "an expired entry goes whatever its bit",
			run: func(t *testing.T, c *Cache, clk *fakeClock) {
				if err := setItem(c, "a", []byte("v"), 0, time.Minute); err != nil {
					t.Fatal(err)
				}
				set(t, c, "b", "c")
				read(t, c, "a")
				clk.Advance(2 * time.Minute)
				set(t, c, "d") // a is reaped, so b does not have to go
			},
			wantAlive:   []string{"b", "c", "d"},
			wantExpired: 1,
		},
		{
			name: "an overwrite starts unread",
			run: func(t *testing.T, c *Cache, _ *fakeClock) {
				set(t, c, "a", "b", "c")
				read(t, c, "a")
				set(t, c, "a") // now the newest entry, bit clear: b, c, a
				set(t, c, "d", "e", "f")
			},
			wantEvicted: []string{"b", "c", "a"},
			wantAlive:   []string{"d", "e", "f"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, clk := newTestCache(t, Options{MaxBytes: budget, Shards: 1, MaxItemSize: 16})
			var evicted []string
			c.OnEvict(func(key string, _ string, _ uint32, _ time.Time) {
				evicted = append(evicted, key)
			})
			tc.run(t, c, clk)
			if fmt.Sprint(evicted) != fmt.Sprint(tc.wantEvicted) {
				t.Errorf("OnEvict saw %v, want %v", evicted, tc.wantEvicted)
			}
			st := c.Stats()
			if st.Evictions != int64(len(tc.wantEvicted)) || st.Expirations != tc.wantExpired {
				t.Errorf("evictions=%d expirations=%d, want %d and %d",
					st.Evictions, st.Expirations, len(tc.wantEvicted), tc.wantExpired)
			}
			if st.Items != int64(len(tc.wantAlive)) {
				t.Errorf("items = %d, want %d", st.Items, len(tc.wantAlive))
			}
			for _, k := range tc.wantAlive {
				if _, err := getItem(c, k); err != nil {
					t.Errorf("%s is gone: %v", k, err)
				}
			}
		})
	}
}

// TestEntrySize is the layout guard. A slot is the itemOverhead the byte
// budget charges, so it must stay 64 bytes: one more word would make the
// charge a lie again. The shard is 128 bytes, a malloc size class whose
// objects start on a 64-byte boundary, and the lock word and the hit and
// miss counters a hit writes sit in its first cache line.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != itemOverhead {
		t.Errorf("sizeof(slot) = %d, want %d", got, itemOverhead)
	}
	var s shard
	if got := unsafe.Sizeof(s); got != 128 {
		t.Errorf("sizeof(shard) = %d, want 128", got)
	}
	for name, end := range map[string]uintptr{
		"mu":     unsafe.Offsetof(s.mu) + unsafe.Sizeof(s.mu),
		"hits":   unsafe.Offsetof(s.hits) + unsafe.Sizeof(s.hits),
		"misses": unsafe.Offsetof(s.misses) + unsafe.Sizeof(s.misses),
	} {
		if end > 64 {
			t.Errorf("shard.%s ends at byte %d, outside the first cache line", name, end)
		}
	}
}

// TestStatsBalanceUnderConcurrency: hits and misses are counted under the
// shard locks, so after any interleaving of the three counting read
// paths, with scrapes racing them, Gets = Hits + Misses = reads issued.
func TestStatsBalanceUnderConcurrency(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perG    = 3000
		present = 64
	)
	for i := 0; i < present; i++ {
		if err := setItem(c, fmt.Sprintf("k%d", i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				if st := c.Stats(); st.Gets != st.Hits+st.Misses {
					t.Errorf("mid-run scrape: gets=%d hits=%d misses=%d", st.Gets, st.Hits, st.Misses)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, 0, 8)
			for i := 0; i < perG; i++ {
				// Even i hits a stored key, odd i misses.
				key := fmt.Sprintf("k%d", (w+i)%present)
				if i%2 == 1 {
					key = "absent-" + key
				}
				var err error
				switch i % 3 {
				case 0:
					_, err = getItem(c, key)
				case 1:
					_, _, _, err = c.GetInto([]byte(key), dst[:0])
				default:
					_, _, _, err = c.GetAndTouch([]byte(key), 0, dst[:0])
				}
				if i%2 == 0 && err != nil || i%2 == 1 && !errors.Is(err, ErrNotFound) {
					t.Errorf("read %d of %s = %v", i, key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped
	st := c.Stats()
	const issued = workers * perG
	if st.Gets != issued || st.Hits != issued/2 || st.Misses != issued/2 {
		t.Errorf("gets=%d hits=%d misses=%d, want %d issued split evenly", st.Gets, st.Hits, st.Misses, issued)
	}
}

// TestScrapeIsNotALockWait: LockWaits and OnLockWait report requests that
// blocked on a shard. An admin walk that blocks behind a writer is not
// one, whichever walk it is.
func TestScrapeIsNotALockWait(t *testing.T) {
	c, err := New(Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := setItem(c, "k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	c.OnLockWait(func(seconds float64) {
		t.Errorf("OnLockWait(%v) called for a scrape", seconds)
	})
	walks := []func(){
		func() { c.Stats() },
		func() { c.ShardStats() },
		func() { c.SlabClasses() },
	}
	// The test stands in for the writer by holding the only shard's lock,
	// so every walk is certain to block on it.
	s := c.shards[0]
	s.mu.Lock()
	var wg sync.WaitGroup
	for _, walk := range walks {
		wg.Add(1)
		go func(walk func()) {
			defer wg.Done()
			walk()
		}(walk)
	}
	time.Sleep(5 * time.Millisecond)
	s.mu.Unlock()
	wg.Wait()
	if st := c.Stats(); st.LockWaits != 0 || st.LockWaitSeconds != 0 {
		t.Errorf("LockWaits=%d LockWaitSeconds=%v after %d blocked scrapes, want 0",
			st.LockWaits, st.LockWaitSeconds, len(walks))
	}
}
