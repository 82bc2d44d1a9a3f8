package cache

import (
	"math/bits"
	"sort"
)

// SlabClass summarizes the items whose per-item cost falls into one
// power-of-two size class — the accounting view memcached exposes via
// "stats slabs"/"stats items". memqlat has one slab class of its own:
// each shard keeps its items' bookkeeping in 64-byte slots, 63 to a
// chunk, while keys and values are Go allocations in Go's size classes.
// Class-level accounting by item cost is what operators use to reason
// about eviction pressure per item size, so the view is preserved.
// Eviction itself is per shard, not per class: one second-chance list
// holds every size.
type SlabClass struct {
	// ChunkSize is the class upper bound in bytes (power of two).
	ChunkSize int64
	// Items is the number of live items in the class.
	Items int64
	// Bytes is the accounted cost of those items.
	Bytes int64
}

// classFor buckets a cost into its power-of-two class, minimum 64.
func classFor(cost int64) int64 {
	if cost <= 64 {
		return 64
	}
	return 1 << bits.Len64(uint64(cost-1))
}

// SlabClasses walks every shard's list and aggregates per-class item
// counts and byte totals, returned in ascending chunk-size order. The
// walk holds each shard lock briefly; counts are a consistent snapshot
// per shard but not across shards (same as memcached).
func (c *Cache) SlabClasses() []SlabClass {
	acc := make(map[int64]*SlabClass)
	for _, s := range c.shards {
		s.mu.Lock()
		for r := s.head; r != 0; r = s.at(r).next {
			cost := s.at(r).cost()
			cls := classFor(cost)
			sc, ok := acc[cls]
			if !ok {
				sc = &SlabClass{ChunkSize: cls}
				acc[cls] = sc
			}
			sc.Items++
			sc.Bytes += cost
		}
		s.mu.Unlock()
	}
	out := make([]SlabClass, 0, len(acc))
	for _, sc := range acc {
		out = append(out, *sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ChunkSize < out[j].ChunkSize })
	return out
}
