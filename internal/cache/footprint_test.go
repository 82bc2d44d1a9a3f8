package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// liveHeap is HeapAlloc after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// appendKey appends the 10-byte key of item i.
func appendKey(dst []byte, i int) []byte {
	dst = append(dst, "k:00000000"...)
	for j := len(dst) - 1; i > 0; j, i = j-1, i/10 {
		dst[j] = byte('0' + i%10)
	}
	return dst
}

// checkShard walks one shard's structures and fails on any disagreement
// between the list, the index and the slot table: every listed slot is
// indexed under its own key, every index entry names a listed slot, and
// the byte and item counts are the sums of the listed items.
func checkShard(t testing.TB, s *shard) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	listed := make(map[uint32]bool)
	var bytes int64
	prev := uint32(0)
	for r := s.head; r != 0; r = s.at(r).next {
		e := s.at(r)
		if listed[r] || e.prev != prev {
			t.Fatalf("list broken at slot %d (prev %d, want %d)", r, e.prev, prev)
		}
		listed[r] = true
		bytes += e.cost()
		if got := s.find([]byte(e.key), s.hash(e.key)); got != r {
			t.Fatalf("key %q: index finds slot %d, list holds it in %d", e.key, got, r)
		}
		prev = r
	}
	if s.tail != prev {
		t.Fatalf("tail = %d, list ends at %d", s.tail, prev)
	}
	indexed := 0
	mask := uint32(len(s.index) - 1)
	for _, e := range s.index {
		if e != 0 {
			indexed++
			if !listed[e&mask] {
				t.Fatalf("index names slot %d, which is not listed", e&mask)
			}
		}
	}
	if indexed != len(listed) || int(s.live) != len(listed) || s.bytes != bytes {
		t.Fatalf("indexed %d, listed %d, live %d; bytes %d, listed bytes %d",
			indexed, len(listed), s.live, s.bytes, bytes)
	}
	free := 0
	for r := s.free; r != 0; r = s.at(r).next {
		if e := s.at(r); listed[r] || e.key != "" || e.value != "" {
			t.Fatalf("free slot %d is listed or still holds its strings", r)
		}
		free++
	}
	if slots := len(s.chunks)*chunkSlots - min(len(s.chunks), 1); free+len(listed) != slots {
		t.Fatalf("%d free + %d live slots, table has %d", free, len(listed), slots)
	}
}

// TestItemFootprint is the heap gate of the item layout: with 10-byte
// keys, an item costs the heap at most its ItemCost plus 32 bytes. What
// ItemCost does not charge is the rounding of the key and value
// allocations to their size classes, the index's share and the unused
// slots of each shard's last chunk.
func TestItemFootprint(t *testing.T) {
	for _, tc := range []struct {
		items, valueLen int
	}{
		{10000, 100},
		{30000, 1024},
	} {
		t.Run(fmt.Sprintf("value=%dB", tc.valueLen), func(t *testing.T) {
			value := bytes.Repeat([]byte("v"), tc.valueLen)
			key := make([]byte, 0, 16)
			before := liveHeap()
			c, err := New(Options{MaxBytes: 64 << 20, Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.items; i++ {
				key = appendKey(key[:0], i)
				if err := c.SetBytes(key, value, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			perItem := float64(liveHeap()-before) / float64(tc.items)
			runtime.KeepAlive(c)
			if st := c.Stats(); st.Items != int64(tc.items) {
				t.Fatalf("%d items resident, want %d", st.Items, tc.items)
			}
			limit := float64(ItemCost(len(key), tc.valueLen) + 32)
			t.Logf("%.1f B per item, ItemCost %d", perItem, ItemCost(len(key), tc.valueLen))
			if perItem > limit {
				t.Errorf("%.1f B per item, want <= ItemCost+32 = %.0f", perItem, limit)
			}
		})
	}
}

// TestSlotChurn drives ten times the cache's capacity of sets over a
// keyspace four times wider than it: evicted slots are reused, so no
// shard's table grows past its peak residency plus one chunk. Deleting
// every key, and then a flush after a refill, hand the values back to
// the collector.
func TestSlotChurn(t *testing.T) {
	const shards, valueLen = 8, 1024
	c, err := New(Options{MaxBytes: 8 << 20, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	capacity := int(8<<20/ItemCost(10, valueLen)) - shards
	keyspace := 4 * capacity
	value := bytes.Repeat([]byte("v"), valueLen)
	key := make([]byte, 0, 16)
	peak := make([]uint32, shards)
	fill := func(rng *rand.Rand, sets int) {
		for i := 0; i < sets; i++ {
			key = appendKey(key[:0], rng.Intn(keyspace))
			if err := c.SetBytes(key, value, 0, 0); err != nil {
				t.Fatal(err)
			}
			for j, s := range c.shards {
				peak[j] = max(peak[j], s.live)
			}
		}
	}
	fill(rand.New(rand.NewSource(1)), 10*capacity)
	if ev := c.Stats().Evictions; ev < int64(5*capacity) {
		t.Fatalf("%d evictions, want the churn to have evicted most sets", ev)
	}
	for j, s := range c.shards {
		checkShard(t, s)
		if slots := len(s.chunks) * chunkSlots; slots > int(peak[j])+chunkSlots {
			t.Errorf("shard %d: %d slots for a peak of %d items", j, slots, peak[j])
		}
	}

	resident := c.Stats().Items
	full := liveHeap()
	for i := 0; i < keyspace; i++ {
		_ = c.Delete(appendKey(key[:0], i))
	}
	if st := c.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("after deleting every key: %d items, %d bytes", st.Items, st.Bytes)
	}
	if freed := full - liveHeap(); freed < resident*valueLen {
		t.Errorf("deleting %d items freed %d B, want >= %d B of values", resident, freed, resident*valueLen)
	}
	for _, s := range c.shards {
		checkShard(t, s)
	}

	fill(rand.New(rand.NewSource(2)), 2*capacity)
	resident = c.Stats().Items
	full = liveHeap()
	c.FlushAll()
	if freed := full - liveHeap(); freed < resident*valueLen {
		t.Errorf("flushing %d items freed %d B, want >= %d B of values", resident, freed, resident*valueLen)
	}
	if st := c.Stats(); st.Items != 0 || st.Bytes != 0 {
		t.Fatalf("after FlushAll: %d items, %d bytes", st.Items, st.Bytes)
	}
}
