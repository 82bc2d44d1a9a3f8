// Package cache is the in-memory key-value store at the heart of the
// Memcached-server substrate: a sharded hash table with per-shard
// second-chance (CLOCK) eviction, item TTLs, CAS tokens, byte-budget
// memory accounting and memcached-compatible mutation semantics
// (set/add/replace/append/prepend/cas/incr/decr/touch/delete/flush_all).
//
// Second-chance approximates LRU without reordering on reads: a hit
// only sets the entry's reference bit, and the evictor gives a
// referenced tail entry one more lap before it goes. A read therefore
// writes nothing but the shard line it already locked, which is what
// keeps concurrent readers off each other's cache lines. The price is
// that recency among referenced entries is forgotten: internal/mrc
// predicts exact LRU, and a capacity-sized cache lands a little below
// that curve (DESIGN.md §9.1).
package cache

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Common result errors, matching the memcached protocol's reply taxonomy.
var (
	// ErrNotFound: the key does not exist (or is expired).
	ErrNotFound = errors.New("cache: not found")
	// ErrExists: a cas operation lost the race (token mismatch).
	ErrExists = errors.New("cache: cas token mismatch")
	// ErrNotStored: an add/replace/append/prepend precondition failed.
	ErrNotStored = errors.New("cache: not stored")
	// ErrNotNumeric: incr/decr on a non-numeric value.
	ErrNotNumeric = errors.New("cache: value is not a number")
	// ErrValueTooLarge: the value exceeds the per-item limit.
	ErrValueTooLarge = errors.New("cache: value too large")
	// ErrKeyInvalid: empty or oversized key.
	ErrKeyInvalid = errors.New("cache: invalid key")
)

// MaxKeyLen mirrors memcached's 250-byte key limit.
const MaxKeyLen = 250

// DefaultMaxItemSize mirrors memcached's default 1 MiB item limit.
const DefaultMaxItemSize = 1 << 20

// itemOverhead is the per-item bookkeeping cost the byte budget charges:
// one slot, which holds the key and value headers, the metadata and the
// list links. The index's share (a few bytes an item) is not charged.
const itemOverhead = 64

// StoreMode is the precondition of a Store, one per storage verb.
type StoreMode uint8

const (
	// ModeSet stores unconditionally.
	ModeSet StoreMode = iota
	// ModeAdd stores only if the key is absent.
	ModeAdd
	// ModeReplace stores only if the key is present.
	ModeReplace
	// ModeAppend puts the value after the stored one, keeping the stored
	// flags and expiry.
	ModeAppend
	// ModePrepend puts the value before the stored one, likewise.
	ModePrepend
	// ModeCAS stores only if the caller's token matches the stored CAS.
	ModeCAS
)

// Options configures a Cache.
type Options struct {
	// MaxBytes caps the total memory budget across shards
	// (default 64 MiB). The cap is enforced per shard as MaxBytes/shards.
	MaxBytes int64
	// Shards is the number of independent lock domains (default
	// DefaultShards: GOMAXPROCS rounded up to a power of two, floored at
	// 8 so small machines still spread contended keys). Rounded up to a
	// power of two.
	Shards int
	// MaxItemSize caps a single value (default DefaultMaxItemSize).
	MaxItemSize int
	// Clock substitutes the time source for tests (default time.Now).
	Clock func() time.Time
}

// DefaultShards is the shard count used when Options.Shards is zero:
// one lock domain per schedulable core (GOMAXPROCS rounded up to a
// power of two), floored at 8 so low-core machines still dilute lock
// convoys among concurrent connections.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return nextPow2(n)
}

// Cache is a sharded second-chance key-value store. All methods are safe
// for concurrent use.
type Cache struct {
	shards      []*shard
	shardMask   uint64
	maxItemSize int
	clock       func() time.Time
	casCounter  atomic.Uint64

	// onLockWait, when set, receives the seconds a shard-lock
	// acquisition by a request spent blocked. The TryLock fast path keeps
	// the uncontended case observation-free, so the stage stays
	// zero-elided on healthy runs.
	onLockWait atomic.Pointer[func(float64)]

	// onEvict, when set, receives each non-expired victim as it is
	// evicted (expired reaping is not an eviction — those values are
	// dead, not displaced). One atomic load per victim when unset; the
	// store hot path is untouched when no evictions occur.
	onEvict atomic.Pointer[EvictFunc]

	sets        atomic.Int64
	deletes     atomic.Int64
	evictions   atomic.Int64
	expirations atomic.Int64

	// lockWaits / lockWaitNanos count the shard-lock acquisitions of
	// requests that found the lock held, and the total time they spent
	// blocked. Only the TryLock-miss slow path pays for them, so the
	// uncontended hot path is unchanged. The admin walks (Stats,
	// ShardStats, SlabClasses) lock plainly: a scrape that waits is not
	// a request that waited.
	lockWaits     atomic.Int64
	lockWaitNanos atomic.Int64
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Items       int64
	Bytes       int64
	MaxBytes    int64
	Gets        int64
	Hits        int64
	Misses      int64
	Sets        int64
	Deletes     int64
	Evictions   int64
	Expirations int64
	// LockWaits counts contended shard-lock acquisitions;
	// LockWaitSeconds is their summed blocked time.
	LockWaits       int64
	LockWaitSeconds float64
}

// New constructs a cache with the given options.
func New(opts Options) (*Cache, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 64 << 20
	}
	if opts.MaxBytes < 0 {
		return nil, fmt.Errorf("cache: MaxBytes=%d must be positive", opts.MaxBytes)
	}
	if opts.Shards == 0 {
		opts.Shards = DefaultShards()
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("cache: Shards=%d must be positive", opts.Shards)
	}
	if opts.MaxItemSize == 0 {
		opts.MaxItemSize = DefaultMaxItemSize
	}
	if opts.MaxItemSize < 0 {
		return nil, fmt.Errorf("cache: MaxItemSize=%d must be positive", opts.MaxItemSize)
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	n := nextPow2(opts.Shards)
	perShard := opts.MaxBytes / int64(n)
	if perShard < int64(opts.MaxItemSize)+itemOverhead {
		perShard = int64(opts.MaxItemSize) + itemOverhead
	}
	c := &Cache{
		shards:      make([]*shard, n),
		shardMask:   uint64(n - 1),
		maxItemSize: opts.MaxItemSize,
		clock:       opts.Clock,
	}
	seed := maphash.MakeSeed()
	for i := range c.shards {
		c.shards[i] = newShard(perShard, seed)
	}
	return c, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FNV-1a parameters, inlined so shard routing never allocates a digest
// (hash/fnv's New64a escapes to the heap on every call).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// Shards reports the number of lock domains.
func (c *Cache) Shards() int { return len(c.shards) }

// EvictFunc observes one eviction victim: the key, the stored value, its
// flags and its absolute expiry (zero when none). It is called with
// the victim's shard lock held, so it must be fast and must not call
// back into the cache. The value is the stored copy itself, immutable,
// so the observer may keep it without copying. The extstore tier hangs
// off this hook: victims are enqueued to the SSD log instead of
// vanishing.
type EvictFunc func(key string, value string, flags uint32, expires time.Time)

// OnEvict installs f as the eviction observer (nil removes it). Safe
// to call concurrently with cache use. Only genuine displacements are
// reported — entries reaped because their TTL passed are counted
// as expirations and never observed here.
func (c *Cache) OnEvict(f EvictFunc) {
	if f == nil {
		c.onEvict.Store(nil)
		return
	}
	c.onEvict.Store(&f)
}

// OnLockWait installs f as the lock-wait observer: it receives the
// seconds any shard-lock acquisition spent blocked (contended case
// only). Safe to call concurrently with cache use; pass nil to remove.
func (c *Cache) OnLockWait(f func(seconds float64)) {
	if f == nil {
		c.onLockWait.Store(nil)
		return
	}
	c.onLockWait.Store(&f)
}

// lock acquires s.mu, measuring the blocked duration for the lock-wait
// observer when the uncontended TryLock fast path misses.
func (c *Cache) lock(s *shard) {
	if s.mu.TryLock() {
		return
	}
	start := time.Now()
	s.mu.Lock()
	wait := time.Since(start)
	c.lockWaits.Add(1)
	c.lockWaitNanos.Add(wait.Nanoseconds())
	if f := c.onLockWait.Load(); f != nil {
		(*f)(wait.Seconds())
	}
}

func (c *Cache) nextCAS() uint64 { return c.casCounter.Add(1) }

// validateKey enforces memcached's key rules: 1 to MaxKeyLen bytes, no
// whitespace or control characters.
func validateKey(key []byte) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return ErrKeyInvalid
	}
	for _, b := range key {
		if b <= ' ' || b == 0x7f {
			return ErrKeyInvalid
		}
	}
	return nil
}

// now reads the cache clock in the unit entries keep their expiry in.
func (c *Cache) now() int64 { return c.clock().UnixNano() }

// expiryFrom converts a TTL to an absolute deadline in Unix nanoseconds:
// ttl == 0 means no expiry (0); ttl < 0 means already expired
// (memcached's negative-exptime semantics — the item is stored but
// never retrievable).
func expiryFrom(now int64, ttl time.Duration) int64 {
	switch {
	case ttl == 0:
		return 0
	case ttl < 0:
		return now
	default:
		return now + int64(ttl)
	}
}

// expiryTime is the API form of a stored deadline (zero when none).
func expiryTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// open is the preamble of every keyed verb: it validates key, locks the
// key's shard and, when lookup is set, returns the key's live slot (0 on
// a miss), reaping it if its TTL has passed. The index probe compares
// the slot's key with key without materializing a string, and the clock
// is read only for an item that carries an expiry, so TTL-less reads
// stay off time.Now. The caller unlocks s.
func (c *Cache) open(key []byte, lookup bool) (s *shard, r uint32, err error) {
	if err := validateKey(key); err != nil {
		return nil, 0, err
	}
	s = c.shards[fnv64a(key)&c.shardMask]
	c.lock(s)
	if !lookup {
		return s, 0, nil
	}
	r = s.find(key, maphash.Bytes(s.seed, key))
	if r != 0 && s.at(r).expires != 0 && s.at(r).expired(c.now()) {
		s.remove(r)
		c.expirations.Add(1)
		return s, 0, nil
	}
	return s, r, nil
}

// GetInto is the allocation-free read path used by the protocol server:
// it looks up key (a byte slice the cache does not retain), appends the
// stored value to dst and returns the extended slice plus the item's
// flags and CAS token. When dst has sufficient capacity the call does
// not allocate. It fails with ErrKeyInvalid or ErrNotFound.
func (c *Cache) GetInto(key []byte, dst []byte) (value []byte, flags uint32, cas uint64, err error) {
	return c.read(key, dst, false, 0)
}

// GetAndTouch is GetInto that also replaces the item's expiry (the
// protocol's gat/gats command).
func (c *Cache) GetAndTouch(key []byte, ttl time.Duration, dst []byte) (value []byte, flags uint32, cas uint64, err error) {
	return c.read(key, dst, true, ttl)
}

// read is the counted read path: a hit sets the item's reference bit,
// replaces its expiry when retime is set, and appends its value to dst
// under the shard lock.
func (c *Cache) read(key, dst []byte, retime bool, ttl time.Duration) ([]byte, uint32, uint64, error) {
	s, r, err := c.open(key, true)
	if err != nil {
		return nil, 0, 0, err
	}
	defer s.mu.Unlock()
	if r == 0 {
		s.misses++
		return nil, 0, 0, ErrNotFound
	}
	s.hits++
	e := s.at(r)
	if retime {
		e.expires = expiryFrom(c.now(), ttl)
	}
	e.touch()
	return append(dst, e.value...), e.flags, e.cas, nil
}

// SetBytes stores value at key unconditionally: Store's set mode.
func (c *Cache) SetBytes(key, value []byte, flags uint32, ttl time.Duration) error {
	return c.Store(ModeSet, key, value, flags, ttl, 0)
}

// Store is the one write path of the storage verbs, as memcached's
// do_store_item is: look the key up, then apply mode's precondition. A
// failed precondition is ErrNotStored, except for ModeCAS, which fails
// with ErrNotFound (absent) or ErrExists (cas is not the stored token).
// Append and prepend keep the stored flags and expiry. The cache keeps a
// copy of value, so callers may reuse the key and value buffers (the
// protocol path parses both into per-connection scratch); that copy is
// the one allocation of a set that overwrites a key. Set overwrites
// without a lookup, so an expired item it replaces is not counted as an
// expiration.
func (c *Cache) Store(mode StoreMode, key, value []byte, flags uint32, ttl time.Duration, cas uint64) error {
	var stored string
	if mode != ModeAppend && mode != ModePrepend {
		// Checked and copied before the lock, so a refused value is never
		// copied; a concatenation is built under it.
		if err := validateKey(key); err != nil {
			return err
		}
		if len(value) > c.maxItemSize {
			return ErrValueTooLarge
		}
		stored = string(value)
	}
	var now int64 // read for a TTL only; store reads it if its walk needs it
	if ttl != 0 {
		now = c.now()
	}
	s, r, err := c.open(key, mode != ModeSet)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	expires := expiryFrom(now, ttl)
	switch mode {
	case ModeAdd:
		if r != 0 {
			return ErrNotStored
		}
	case ModeReplace:
		if r == 0 {
			return ErrNotStored
		}
	case ModeCAS:
		if r == 0 {
			return ErrNotFound
		}
		if s.at(r).cas != cas {
			return ErrExists
		}
	case ModeAppend, ModePrepend:
		if r == 0 {
			return ErrNotStored
		}
		e := s.at(r)
		if len(e.value)+len(value) > c.maxItemSize {
			return ErrValueTooLarge
		}
		if mode == ModeAppend {
			stored = e.value + string(value)
		} else {
			stored = string(value) + e.value
		}
		flags, expires = e.flags, e.expires
	}
	s.store(c, key, stored, flags, expires, c.nextCAS(), now)
	c.sets.Add(1)
	return nil
}

// Contains reports whether key is live, without counting a hit or a miss
// or setting the item's reference bit.
func (c *Cache) Contains(key []byte) bool {
	s, r, err := c.open(key, true)
	if err != nil {
		return false
	}
	s.mu.Unlock()
	return r != 0
}

// Delete removes the key.
func (c *Cache) Delete(key []byte) error {
	s, r, err := c.open(key, true)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	if r == 0 {
		return ErrNotFound
	}
	s.remove(r)
	c.deletes.Add(1)
	return nil
}

// Touch replaces the expiry of an existing key.
func (c *Cache) Touch(key []byte, ttl time.Duration) error {
	s, r, err := c.open(key, true)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	if r == 0 {
		return ErrNotFound
	}
	e := s.at(r)
	e.expires = expiryFrom(c.now(), ttl)
	e.touch()
	return nil
}

// IncrDecr adjusts a decimal uint64 value by delta (negative for decr).
// Decrement saturates at zero (memcached semantics); increment wraps.
// The new value is returned.
func (c *Cache) IncrDecr(key []byte, delta int64) (uint64, error) {
	s, r, err := c.open(key, true)
	if err != nil {
		return 0, err
	}
	defer s.mu.Unlock()
	if r == 0 {
		return 0, ErrNotFound
	}
	e := s.at(r)
	cur, err := strconv.ParseUint(e.value, 10, 64)
	if err != nil {
		return 0, ErrNotNumeric
	}
	var next uint64
	if delta >= 0 {
		next = cur + uint64(delta)
	} else {
		dec := uint64(-delta)
		if dec > cur {
			next = 0
		} else {
			next = cur - dec
		}
	}
	s.store(c, key, strconv.FormatUint(next, 10), e.flags, e.expires, c.nextCAS(), 0)
	return next, nil
}

// FlushAll discards every item.
func (c *Cache) FlushAll() {
	for _, s := range c.shards {
		c.lock(s)
		s.clear()
		s.mu.Unlock()
	}
}

// Stats snapshots the counters in one pass over the shards. Each
// shard's occupancy and hit/miss counts are consistent with each other;
// the snapshot is not atomic across shards.
func (c *Cache) Stats() Stats {
	st := Stats{
		Sets:            c.sets.Load(),
		Deletes:         c.deletes.Load(),
		Evictions:       c.evictions.Load(),
		Expirations:     c.expirations.Load(),
		LockWaits:       c.lockWaits.Load(),
		LockWaitSeconds: float64(c.lockWaitNanos.Load()) / 1e9,
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Items += int64(s.live)
		st.Bytes += s.bytes
		st.MaxBytes += s.maxBytes
		st.Hits += s.hits
		st.Misses += s.misses
		s.mu.Unlock()
	}
	st.Gets = st.Hits + st.Misses
	return st
}

// ShardStat is one shard's occupancy snapshot.
type ShardStat struct {
	Items    int64
	Bytes    int64
	MaxBytes int64
}

// ShardStats snapshots per-shard occupancy — the balance view the
// metrics plane exposes so a skewed key distribution (one shard
// evicting while others idle) is visible without guessing from global
// counters.
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = ShardStat{
			Items:    int64(s.live),
			Bytes:    s.bytes,
			MaxBytes: s.maxBytes,
		}
		s.mu.Unlock()
	}
	return out
}

// slot is one stored item plus its eviction-list links, which are slot
// references (0 = none). It is 64 bytes, the itemOverhead the budget
// charges (TestEntrySize), and it lives in its shard's chunk table, so
// an item's only allocations are its key and its value. The value is an
// immutable copy, which lets the eviction hook take it as it is. expires
// is Unix nanoseconds (0 = never).
type slot struct {
	key        string
	value      string
	cas        uint64
	expires    int64
	flags      uint32
	prev, next uint32 // next also chains the free slots
	ref        bool   // read since it was stored or last reprieved
}

// touch marks e recently used; every read path goes through it. The
// evictor does the reordering (shard.store), so a hit on an item that
// is already referenced writes nothing to it.
func (e *slot) touch() {
	if !e.ref {
		e.ref = true
	}
}

func (e *slot) cost() int64 {
	return ItemCost(len(e.key), len(e.value))
}

// ItemCost reports the byte-budget charge of one cached item — the key
// and value payloads plus the fixed per-item bookkeeping overhead — so
// capacity planners (e.g. the live plane's tier sizing) can convert an
// item budget into a MaxBytes budget.
func ItemCost(keyLen, valueLen int) int64 {
	return int64(keyLen) + int64(valueLen) + itemOverhead
}

func (e *slot) expired(now int64) bool {
	return e.expires != 0 && now >= e.expires
}

const (
	// chunkSlots is the slot table's unit of growth: an array never
	// resized, so the table has no append slack and a shard's unused
	// slots are fewer than one chunk. 63 slots plus the 8-byte header
	// Go's allocator puts on a pointerful object this size fill the
	// 4 KiB size class; 64 would round up to 4864 bytes.
	chunkSlots = 63
	// minIndex is the index's starting size. The index grows before it
	// is ¾ full and the slot table holds at most one chunk more than the
	// peak item count, so every slot reference stays below the index
	// size and fits under the index mask (¾·256 + 63 < 256).
	minIndex = 256
)

// shard is one lock domain: a slot table, the open-addressing index
// over it, the second-chance list threaded through it, the byte budget,
// and the read counters, which are plain integers because every read
// already holds mu (Stats sums them). It is padded to 128 bytes and
// allocated on its own, so the lock word and the counters a hit writes
// share the first cache line and no other shard's (TestEntrySize).
//
// Index entries are slot references with the hash's high bits as a tag
// above the index mask (0 = empty). Probing is linear and a removal
// shifts the rest of its cluster back, so the table has no tombstones.
// The index hash is maphash under the Cache's seed; the shard a key
// belongs to is chosen by FNV-1a (Cache.open), so routing stays
// deterministic while the probe sequence cannot be chosen by a client.
type shard struct {
	mu       sync.Mutex
	hits     int64
	misses   int64
	index    []uint32
	chunks   []*[chunkSlots]slot // slot 0 is never used: it is the nil reference
	seed     maphash.Seed
	bytes    int64
	maxBytes int64
	head     uint32 // newest: stored or reprieved last
	tail     uint32 // oldest: the next eviction candidate
	free     uint32 // the free-slot chain
	live     uint32
	_        [16]byte
}

func newShard(maxBytes int64, seed maphash.Seed) *shard {
	return &shard{index: make([]uint32, minIndex), seed: seed, maxBytes: maxBytes}
}

func (s *shard) at(r uint32) *slot { return &s.chunks[r/chunkSlots][r%chunkSlots] }

func (s *shard) hash(key string) uint64 { return maphash.String(s.seed, key) }

// find returns key's slot reference, 0 when absent. h is the key's
// index hash.
func (s *shard) find(key []byte, h uint64) uint32 {
	mask := uint32(len(s.index) - 1)
	tag := uint32(h>>32) &^ mask
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		e := s.index[i]
		if e == 0 {
			return 0
		}
		if e&^mask == tag && s.at(e&mask).key == string(key) {
			return e & mask
		}
	}
}

// place indexes slot r under hash h at the first free position of its
// probe sequence.
func (s *shard) place(r uint32, h uint64) {
	mask := uint32(len(s.index) - 1)
	i := uint32(h) & mask
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = uint32(h>>32)&^mask | r
}

// unindex removes slot r, whose key hashes to h, from the index and
// shifts back the entries behind it that probed past it.
func (s *shard) unindex(r uint32, h uint64) {
	mask := uint32(len(s.index) - 1)
	i := uint32(h) & mask
	for s.index[i]&mask != r {
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		e := s.index[j]
		if e == 0 {
			break
		}
		// e may fill the hole at i unless its home lies in (i, j].
		if home := uint32(s.hash(s.at(e&mask).key)) & mask; (j-home)&mask >= (j-i)&mask {
			s.index[i] = e
			i = j
		}
	}
	s.index[i] = 0
}

// insert takes a free slot for key, a key the index does not hold, and
// indexes it under h. The index doubles first if the new item would
// fill it past ¾.
func (s *shard) insert(key []byte, h uint64) uint32 {
	if 4*(int(s.live)+1) > 3*len(s.index) {
		old := s.index
		s.index = make([]uint32, 2*len(old))
		oldMask := uint32(len(old) - 1)
		for _, e := range old {
			if e != 0 {
				s.place(e&oldMask, s.hash(s.at(e&oldMask).key))
			}
		}
	}
	if s.free == 0 {
		base := uint32(len(s.chunks)) * chunkSlots
		s.chunks = append(s.chunks, new([chunkSlots]slot))
		for r := base + chunkSlots - 1; r >= max(base, 1); r-- {
			s.at(r).next, s.free = s.free, r
		}
	}
	r := s.free
	e := s.at(r)
	s.free, e.next = e.next, 0
	e.key = string(key)
	s.place(r, h)
	s.live++
	return r
}

func (s *shard) unlink(r uint32) {
	e := s.at(r)
	if e.prev != 0 {
		s.at(e.prev).next = e.next
	} else {
		s.head = e.next
	}
	if e.next != 0 {
		s.at(e.next).prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = 0, 0
}

func (s *shard) pushFront(r uint32) {
	e := s.at(r)
	e.next = s.head
	if s.head != 0 {
		s.at(s.head).prev = r
	}
	s.head = r
	if s.tail == 0 {
		s.tail = r
	}
}

// store puts value at key at the head of the list, evicting from the
// tail to fit the budget. A key already present keeps its slot, its key
// string and its index entry, so an overwrite allocates nothing here.
// now is the clock, or 0 if the caller has not read it. Caller holds mu.
func (s *shard) store(c *Cache, key []byte, value string, flags uint32, expires int64, cas uint64, now int64) {
	h := maphash.Bytes(s.seed, key)
	r := s.find(key, h)
	if r != 0 {
		s.bytes -= s.at(r).cost()
		s.unlink(r)
	}
	need := ItemCost(len(key), len(value))
	// Walk the tail until the new item fits. A live item read since its
	// last lap gets a second chance: its bit is cleared and it goes round
	// again, so the loop ends after at most one lap of reprieves. An
	// expired item goes whatever its bit.
	for s.bytes+need > s.maxBytes && s.tail != 0 {
		victim := s.tail
		v := s.at(victim)
		if now == 0 && v.expires != 0 {
			now = c.now() // read once, at the first victim with an expiry
		}
		expired := v.expired(now)
		if v.ref && !expired {
			v.ref = false
			s.unlink(victim)
			s.pushFront(victim)
			continue
		}
		vkey, vvalue, vflags, vexpires := v.key, v.value, v.flags, v.expires
		s.remove(victim)
		if expired {
			c.expirations.Add(1)
		} else {
			c.evictions.Add(1)
			// Displaced-but-live victims are observable: the second
			// cache tier catches them here, value and all, uncopied.
			if f := c.onEvict.Load(); f != nil {
				(*f)(vkey, vvalue, vflags, expiryTime(vexpires))
			}
		}
	}
	if r == 0 {
		r = s.insert(key, h)
	}
	e := s.at(r)
	e.value, e.flags, e.expires, e.cas, e.ref = value, flags, expires, cas, false
	s.pushFront(r)
	s.bytes += need
}

// remove deletes slot r and returns it to the free chain, dropping its
// strings so the collector can reclaim them. Caller holds mu.
func (s *shard) remove(r uint32) {
	e := s.at(r)
	s.bytes -= e.cost()
	s.unlink(r)
	s.unindex(r, s.hash(e.key))
	*e = slot{next: s.free}
	s.free = r
	s.live--
}

// clear drops every item, the slot table and the grown index with them.
func (s *shard) clear() {
	s.index = make([]uint32, minIndex)
	s.chunks = nil
	s.head, s.tail, s.free, s.live = 0, 0, 0, 0
	s.bytes = 0
}

// sanity guards against accidental arithmetic regressions in cost().
var _ = func() struct{} {
	if itemOverhead <= 0 || itemOverhead > math.MaxInt32 {
		panic("cache: invalid itemOverhead")
	}
	return struct{}{}
}()
