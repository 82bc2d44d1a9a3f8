package cache

import (
	"fmt"
	"testing"
	"time"
)

// evictRecord captures one OnEvict callback invocation.
type evictRecord struct {
	key     string
	value   string
	flags   uint32
	expires time.Time
}

// TestOnEvict is the victim-hook table test: which entries reach the
// observer (live LRU victims), which never do (expired reaping,
// deletes, overwrites, flushes), and that removing the hook silences
// it again.
func TestOnEvict(t *testing.T) {
	// One shard with room for ~2 small items, so the third store
	// displaces the LRU tail deterministically.
	budget := int64(2 * (8 + 8 + itemOverhead))
	val := func(s string) []byte { return []byte(s) }

	cases := []struct {
		name string
		run  func(c *Cache, clk *fakeClock)
		want []evictRecord
	}{
		{
			name: "lru displacement reports the victim",
			run: func(c *Cache, _ *fakeClock) {
				setItem(c, "key-0000", val("value-00"), 7, 0)
				setItem(c, "key-0001", val("value-01"), 0, 0)
				setItem(c, "key-0002", val("value-02"), 0, 0) // evicts key-0000
			},
			want: []evictRecord{{key: "key-0000", value: "value-00", flags: 7}},
		},
		{
			name: "expired victims are reaped, not reported",
			run: func(c *Cache, clk *fakeClock) {
				setItem(c, "key-0000", val("value-00"), 0, time.Minute)
				setItem(c, "key-0001", val("value-01"), 0, 0)
				clk.Advance(2 * time.Minute)
				setItem(c, "key-0002", val("value-02"), 0, 0) // key-0000 is dead weight
			},
			want: nil,
		},
		{
			name: "delete and overwrite are not evictions",
			run: func(c *Cache, _ *fakeClock) {
				setItem(c, "key-0000", val("value-00"), 0, 0)
				setItem(c, "key-0000", val("value-XX"), 0, 0)
				c.Delete([]byte("key-0000"))
			},
			want: nil,
		},
		{
			name: "flush drops everything silently",
			run: func(c *Cache, _ *fakeClock) {
				setItem(c, "key-0000", val("value-00"), 0, 0)
				setItem(c, "key-0001", val("value-01"), 0, 0)
				c.FlushAll()
			},
			want: nil,
		},
		{
			name: "victim expiry deadline is passed through",
			run: func(c *Cache, clk *fakeClock) {
				setItem(c, "key-0000", val("value-00"), 0, time.Hour)
				setItem(c, "key-0001", val("value-01"), 0, 0)
				setItem(c, "key-0002", val("value-02"), 0, 0)
			},
			want: []evictRecord{{
				key: "key-0000", value: "value-00",
				expires: time.Unix(1_700_000_000, 0).Add(time.Hour),
			}},
		},
		{
			name: "cascading evictions report every victim in LRU order",
			run: func(c *Cache, _ *fakeClock) {
				setItem(c, "key-0000", val("value-00"), 0, 0)
				setItem(c, "key-0001", val("value-01"), 0, 0)
				// A value sized near the whole budget displaces both.
				big := make([]byte, int(budget)-len("key-0002")-itemOverhead)
				setItem(c, "key-0002", big, 0, 0)
			},
			want: []evictRecord{
				{key: "key-0000", value: "value-00"},
				{key: "key-0001", value: "value-01"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, clk := newTestCache(t, Options{MaxBytes: budget, Shards: 1, MaxItemSize: 128})
			var got []evictRecord
			c.OnEvict(func(key string, value string, flags uint32, expires time.Time) {
				got = append(got, evictRecord{
					key:     key,
					value:   value,
					flags:   flags,
					expires: expires,
				})
			})
			tc.run(c, clk)
			if len(got) != len(tc.want) {
				t.Fatalf("observed %d evictions %v, want %d %v", len(got), got, len(tc.want), tc.want)
			}
			for i := range got {
				if got[i].key != tc.want[i].key || got[i].value != tc.want[i].value ||
					got[i].flags != tc.want[i].flags || !got[i].expires.Equal(tc.want[i].expires) {
					t.Fatalf("eviction %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestOnEvictRemoval: a nil hook restores silence and costs nothing.
func TestOnEvictRemoval(t *testing.T) {
	budget := int64(2 * (8 + 8 + itemOverhead))
	c, _ := newTestCache(t, Options{MaxBytes: budget, Shards: 1, MaxItemSize: 128})
	calls := 0
	c.OnEvict(func(string, string, uint32, time.Time) { calls++ })
	setItem(c, "key-0000", []byte("value-00"), 0, 0)
	setItem(c, "key-0001", []byte("value-01"), 0, 0)
	setItem(c, "key-0002", []byte("value-02"), 0, 0)
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	c.OnEvict(nil)
	for i := 3; i < 10; i++ {
		setItem(c, fmt.Sprintf("key-%04d", i), []byte("value-zz"), 0, 0)
	}
	if calls != 1 {
		t.Fatalf("calls after removal = %d, want still 1", calls)
	}
	if c.Stats().Evictions < 8 {
		t.Fatalf("evictions = %d, want the churn to have kept evicting", c.Stats().Evictions)
	}
}
