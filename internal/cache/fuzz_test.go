package cache

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refItem is one item of the reference model.
type refItem struct {
	key, value string
	flags      uint32
	cas        uint64
	expires    int64
	ref        bool
	elem       *list.Element
}

// refCache is the reference the slot table is checked against: a Go map
// and a container/list second-chance list, with memcached's verb
// semantics written out plainly for one shard.
type refCache struct {
	items    map[string]*refItem
	order    *list.List // front = newest
	bytes    int64
	maxBytes int64
	maxItem  int
	cas      uint64
	st       Stats
	evicted  []evictRecord
}

func newRefCache(maxBytes int64, maxItem int) *refCache {
	return &refCache{items: map[string]*refItem{}, order: list.New(), maxBytes: maxBytes, maxItem: maxItem}
}

func (m *refCache) remove(it *refItem) {
	m.bytes -= ItemCost(len(it.key), len(it.value))
	m.order.Remove(it.elem)
	delete(m.items, it.key)
}

// lookup is Cache.open: an expired item is reaped and counted.
func (m *refCache) lookup(key string, now int64) *refItem {
	it := m.items[key]
	if it != nil && it.expires != 0 && now >= it.expires {
		m.remove(it)
		m.st.Expirations++
		return nil
	}
	return it
}

// store is shard.store: the old item leaves the list, the tail is walked
// with second chances until the new one fits, and it goes in at the front.
func (m *refCache) store(key, value string, flags uint32, expires int64, now int64) {
	m.cas++
	if old := m.items[key]; old != nil {
		m.remove(old)
	}
	need := ItemCost(len(key), len(value))
	for m.bytes+need > m.maxBytes && m.order.Len() > 0 {
		v := m.order.Back().Value.(*refItem)
		expired := v.expires != 0 && now >= v.expires
		if v.ref && !expired {
			v.ref = false
			m.order.MoveToFront(v.elem)
			continue
		}
		m.remove(v)
		if expired {
			m.st.Expirations++
		} else {
			m.st.Evictions++
			m.evicted = append(m.evicted, evictRecord{key: v.key, value: v.value, flags: v.flags, expires: expiryTime(v.expires)})
		}
	}
	it := &refItem{key: key, value: value, flags: flags, cas: m.cas, expires: expires}
	it.elem = m.order.PushFront(it)
	m.items[key] = it
	m.bytes += need
}

// storeMode is Cache.Store.
func (m *refCache) storeMode(mode StoreMode, key, value string, flags uint32, ttl time.Duration, cas uint64, now int64) error {
	concat := mode == ModeAppend || mode == ModePrepend
	if !concat && len(value) > m.maxItem {
		return ErrValueTooLarge
	}
	var it *refItem
	if mode != ModeSet {
		it = m.lookup(key, now)
	}
	expires := expiryFrom(now, ttl)
	switch mode {
	case ModeAdd:
		if it != nil {
			return ErrNotStored
		}
	case ModeReplace:
		if it == nil {
			return ErrNotStored
		}
	case ModeCAS:
		if it == nil {
			return ErrNotFound
		}
		if it.cas != cas {
			return ErrExists
		}
	case ModeAppend, ModePrepend:
		if it == nil {
			return ErrNotStored
		}
		if len(it.value)+len(value) > m.maxItem {
			return ErrValueTooLarge
		}
		if mode == ModeAppend {
			value = it.value + value
		} else {
			value = value + it.value
		}
		flags, expires = it.flags, it.expires
	}
	m.store(key, value, flags, expires, now)
	m.st.Sets++
	return nil
}

// incrDecr is Cache.IncrDecr, its result formatted as the fuzz test
// formats the cache's.
func (m *refCache) incrDecr(key string, delta int64, now int64) string {
	it := m.lookup(key, now)
	if it == nil {
		return fmt.Sprint(0, ErrNotFound.Error())
	}
	cur, err := strconv.ParseUint(it.value, 10, 64)
	if err != nil {
		return fmt.Sprint(0, ErrNotNumeric.Error())
	}
	next := cur + uint64(delta)
	if delta < 0 {
		next = 0
		if dec := uint64(-delta); dec <= cur {
			next = cur - dec
		}
	}
	m.store(key, strconv.FormatUint(next, 10), it.flags, it.expires, now)
	return fmt.Sprint(next, "ok")
}

// fuzzKeys returns n keys of one length whose index hashes all start
// probing within four positions either side of the end of a minimum-size
// index, so lookups walk a cluster that wraps around the table. Which
// keys those are depends on the cache's seed; their costs do not.
func fuzzKeys(s *shard, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%06d", i)
		if home := uint32(s.hash(k)) & (minIndex - 1); home < 4 || home >= minIndex-4 {
			keys = append(keys, k)
		}
	}
	return keys
}

// FuzzCacheOps runs a byte-coded sequence of every verb, flushes and
// clock steps on a one-shard cache small enough to evict, with keys that
// collide in its index, and checks each result, the counters and the
// OnEvict sequence against refCache; the shard's list, index and slot
// table must agree with each other after every step.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 0, 2, 20, 0, 9, 1, 0, 0, 0, 3, 30, 0, 0, 4, 30, 0, 0, 5, 30, 0})
	f.Add([]byte{0, 0, 5, 1, 6, 0, 7, 0, 7, 0, 9, 0, 3, 0, 9, 0, 4, 0, 9, 0, 13, 0, 2, 0, 9, 0, 0, 0})
	f.Add([]byte{0, 1, 8, 2, 5, 1, 1, 0, 5, 1, 3, 0, 10, 1, 0, 3, 8, 1, 0, 1, 13, 0, 1, 0, 14, 1, 0, 0})
	f.Add([]byte(strings.Repeat("\x00\x01\x27\x00\x00\x02\x27\x00\x09\x01\x00\x00\x00\x03\x27\x00\x0b\x02\x00\x00", 8)))
	f.Add([]byte{1, 4, 4, 0, 3, 4, 40, 0, 3, 4, 40, 0, 3, 4, 40, 0, 4, 4, 40, 0, 12, 0, 0, 0, 9, 4, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxItem = 128
		clk := newFakeClock()
		c, err := New(Options{MaxBytes: 640, Shards: 1, MaxItemSize: maxItem, Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		var evicted []evictRecord
		c.OnEvict(func(key, value string, flags uint32, expires time.Time) {
			evicted = append(evicted, evictRecord{key: key, value: value, flags: flags, expires: expires})
		})
		s := c.shards[0]
		m := newRefCache(s.maxBytes, maxItem)
		keys := fuzzKeys(s, 12)
		ttls := [...]time.Duration{0, 0, time.Second, 3 * time.Second, -1}
		for len(ops) >= 4 {
			op, key, arg := ops[0]%15, keys[int(ops[1])%len(keys)], ops[2]
			ttl := ttls[int(ops[3])%len(ttls)]
			ops = ops[4:]
			value := strings.Repeat(string(rune('a'+arg%26)), int(arg)%48)
			switch {
			case arg >= 250:
				value = strings.Repeat("z", maxItem+1)
			case arg%3 == 0:
				value = strconv.Itoa(int(arg) * 1000)
			}
			flags := uint32(arg) % 4
			now := clk.Now().UnixNano()
			var got, want string
			switch op {
			case 0, 1, 2, 3, 4, 5:
				mode := StoreMode(op)
				var cas uint64
				if mode == ModeCAS {
					cas = uint64(arg) % 8
					if it := m.items[key]; it != nil && arg%2 == 0 {
						cas = it.cas
					}
				}
				got = errString(c.Store(mode, []byte(key), []byte(value), flags, ttl, cas))
				want = errString(m.storeMode(mode, key, value, flags, ttl, cas, now))
			case 6, 7:
				delta := int64(arg)
				if op == 7 {
					delta = -delta
				}
				n, err := c.IncrDecr([]byte(key), delta)
				got = fmt.Sprint(n, errString(err))
				want = m.incrDecr(key, delta, now)
			case 8:
				got = errString(c.Touch([]byte(key), ttl))
				want = ErrNotFound.Error()
				if it := m.lookup(key, now); it != nil {
					it.expires, it.ref, want = expiryFrom(now, ttl), true, "ok"
				}
			case 9, 10:
				var v []byte
				var fl uint32
				var cas uint64
				var err error
				if op == 9 {
					v, fl, cas, err = c.GetInto([]byte(key), nil)
				} else {
					v, fl, cas, err = c.GetAndTouch([]byte(key), ttl, nil)
				}
				got = fmt.Sprintf("%q %d %d %s", v, fl, cas, errString(err))
				want = fmt.Sprintf("%q %d %d %s", "", 0, 0, ErrNotFound.Error())
				if it := m.lookup(key, now); it == nil {
					m.st.Misses++
				} else {
					m.st.Hits++
					if op == 10 {
						it.expires = expiryFrom(now, ttl)
					}
					it.ref = true
					want = fmt.Sprintf("%q %d %d %s", it.value, it.flags, it.cas, "ok")
				}
			case 11:
				got = errString(c.Delete([]byte(key)))
				want = ErrNotFound.Error()
				if it := m.lookup(key, now); it != nil {
					m.remove(it)
					m.st.Deletes++
					want = "ok"
				}
			case 12:
				c.FlushAll()
				m.items, m.bytes = map[string]*refItem{}, 0
				m.order.Init()
			case 13:
				clk.Advance(time.Duration(arg%3) * time.Second)
			case 14:
				got = fmt.Sprint(c.Contains([]byte(key)))
				want = fmt.Sprint(m.lookup(key, now) != nil)
			}
			if got != want {
				t.Fatalf("op %d on %q (arg %d, ttl %v): cache %q, reference %q", op, key, arg, ttl, got, want)
			}
			checkShard(t, s)
			st := c.Stats()
			st.Gets, st.MaxBytes, st.LockWaits, st.LockWaitSeconds = 0, 0, 0, 0
			m.st.Items, m.st.Bytes = int64(len(m.items)), m.bytes
			if st != m.st {
				t.Fatalf("after op %d on %q: stats %+v, reference %+v", op, key, st, m.st)
			}
			if fmt.Sprint(evicted) != fmt.Sprint(m.evicted) {
				t.Fatalf("after op %d on %q: evicted %v, reference %v", op, key, evicted, m.evicted)
			}
		}
	})
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
