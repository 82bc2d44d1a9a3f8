package extstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Store.
type Options struct {
	// Dir is the directory holding segment files (created if absent).
	Dir string
	// SegmentBytes caps one segment file before rotation
	// (default 4 MiB, floor 4 KiB).
	SegmentBytes int64
	// MaxBytes caps the total on-disk footprint (default 64 MiB).
	// When live data alone exceeds it, whole oldest segments are
	// dropped — the disk tier is a cache, not a durable store.
	MaxBytes int64
	// Clock substitutes the time source for tests (default time.Now).
	Clock func() time.Time

	queueDepth int // writeQueueDepth; tests lower it
}

func (o *Options) withDefaults() error {
	if o.Dir == "" {
		return fmt.Errorf("extstore: Dir is required")
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SegmentBytes < 4<<10 {
		o.SegmentBytes = 4 << 10
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 64 << 20
	}
	if o.MaxBytes < 2*o.SegmentBytes {
		o.MaxBytes = 2 * o.SegmentBytes
	}
	if o.queueDepth == 0 {
		o.queueDepth = writeQueueDepth
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return nil
}

const (
	// maxValueBytes caps a single value. Frames claiming larger values
	// are treated as corruption on scan.
	maxValueBytes = 1 << 20
	// writeQueueDepth bounds the async write queue fed by RAM evictions.
	// A full queue drops the eviction — the value falls through to the
	// backend on its next miss.
	writeQueueDepth = 1024
	// indexShards is the number of index lock domains, a power of two
	// (the shard is picked by mask).
	indexShards = 16
	// compactThreshold is the dead-byte fraction of a sealed segment
	// that triggers compaction.
	compactThreshold = 0.5
)

// loc is one index entry: where a key's latest record lives.
type loc struct {
	seg     uint64
	off     int64
	size    uint32 // whole frame: header + key + value
	expires int64  // unix nanos; 0 = never
}

// segment is one append-only file. size and dead are atomics because
// readers and Stats observe them while the writer appends.
type segment struct {
	id     uint64
	path   string
	file   *os.File
	size   atomic.Int64 // valid bytes, including header (and footer once sealed)
	dead   atomic.Int64 // bytes of overwritten/deleted/expired records
	sealed bool         // guarded by Store.wmu
}

type indexShard struct {
	mu sync.RWMutex
	m  map[string]loc
}

type putReq struct {
	key     string
	value   string
	flags   uint32
	expires int64
	gen     uint64 // the flush generation it was queued in
}

// Store is the SSD tier. All methods are safe for concurrent use.
type Store struct {
	opts  Options
	clock func() time.Time

	// wmu serializes the write path: appends, rotation, compaction.
	wmu        sync.Mutex
	active     *segment
	nextID     uint64
	wbuf       []byte
	compacting bool

	// segmu guards the segment map and segment file lifetime: readers
	// hold RLock across ReadAt so compaction cannot close a file
	// under them.
	segmu    sync.RWMutex
	segments map[uint64]*segment

	shards []indexShard

	queue  chan putReq
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	// gen is the flush generation, bumped by FlushAll under wmu; queued
	// and done count the writes PutAsync accepted and the writer finished
	// with, Flush's barrier.
	gen          atomic.Uint64
	queued, done atomic.Int64

	keys        atomic.Int64
	gets        atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	expired     atomic.Int64
	puts        atomic.Int64
	putBytes    atomic.Int64
	drops       atomic.Int64
	deletes     atomic.Int64
	corrupt     atomic.Int64
	compactions atomic.Int64
	relocated   atomic.Int64
	reclaimed   atomic.Int64
	droppedSegs atomic.Int64
	truncated   atomic.Int64

	// recovered is written once during Open, before concurrency starts.
	recovered int64
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Keys         int64
	Segments     int
	SegmentBytes int64 // total on-disk footprint
	DeadBytes    int64 // reclaimable bytes awaiting compaction

	Gets    int64
	Hits    int64 // disk hits
	Misses  int64
	Expired int64 // lazy expirations observed on read or compaction

	Puts     int64
	PutBytes int64
	Drops    int64 // async writes shed on a full queue
	Deletes  int64
	Corrupt  int64 // records failing checksum at read time

	Compactions      int64
	Relocated        int64 // live records moved by compaction
	ReclaimedBytes   int64
	DroppedSegments  int64 // whole segments evicted for the byte budget
	TruncatedBytes   int64 // torn tail removed at recovery
	RecoveredRecords int64 // live records indexed at open
}

// Open creates or recovers a store in opts.Dir. Existing segment files
// are scanned in id order to rebuild the index: later records win,
// tombstones erase, and the first frame that fails validation in the
// live (highest-id, unsealed) segment marks the torn tail — the file
// is truncated there and appends resume at that offset.
func Open(opts Options) (*Store, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("extstore: %w", err)
	}
	s := &Store{
		opts:     opts,
		clock:    opts.Clock,
		segments: make(map[uint64]*segment),
		shards:   make([]indexShard, indexShards),
		queue:    make(chan putReq, opts.queueDepth),
		stop:     make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i].m = make(map[string]loc)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.finishRecovery()
	if s.active == nil {
		if err := s.openActiveLocked(); err != nil {
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// openActiveLocked creates a fresh active segment. Callers hold wmu or
// have exclusive access (Open).
func (s *Store) openActiveLocked() error {
	id := s.nextID
	s.nextID++
	path := filepath.Join(s.opts.Dir, segFileName(id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("extstore: %w", err)
	}
	hdr := appendSegHeader(nil, id)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("extstore: %w", err)
	}
	seg := &segment{id: id, path: path, file: f}
	seg.size.Store(segHeaderSize)
	s.segmu.Lock()
	s.segments[id] = seg
	s.segmu.Unlock()
	s.active = seg
	return nil
}

func segFileName(id uint64) string {
	return fmt.Sprintf("seg-%016x.log", id)
}

func (s *Store) shardFor(key []byte) *indexShard {
	return &s.shards[fnv64a(key)&(indexShards-1)]
}

func fnv64a(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

func validateKey(key []byte) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return ErrKeyInvalid
	}
	return nil
}

// nano converts an absolute expiry to the on-disk representation.
func nano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Lookup looks key up in the disk tier, appending the value to dst,
// and returns it with the record's expiry deadline (zero when the record
// never expires) — the server's re-promotion path needs the remaining
// TTL to store the disk hit back into the RAM tier without resurrecting
// it past its deadline. The record's checksum is verified on every
// read, so a latent torn write surfaces as ErrCorrupt (and the entry is
// dropped) rather than as silently wrong bytes. When dst has sufficient
// capacity the call does not allocate.
func (s *Store) Lookup(key, dst []byte) (value []byte, flags uint32, expires time.Time, err error) {
	if err := validateKey(key); err != nil {
		return nil, 0, time.Time{}, err
	}
	if s.closed.Load() {
		return nil, 0, time.Time{}, ErrClosed
	}
	s.gets.Add(1)
	sh := s.shardFor(key)
	for attempt := 0; attempt < 2; attempt++ {
		sh.mu.RLock()
		lc, ok := sh.m[string(key)]
		sh.mu.RUnlock()
		if !ok {
			s.misses.Add(1)
			return nil, 0, time.Time{}, ErrNotFound
		}
		if lc.expires != 0 && s.clock().UnixNano() >= lc.expires {
			s.dropEntry(key, lc)
			s.expired.Add(1)
			s.misses.Add(1)
			return nil, 0, time.Time{}, ErrNotFound
		}
		s.segmu.RLock()
		seg := s.segments[lc.seg]
		if seg == nil {
			// Compacted between the index read and here: the index
			// already points at the relocated record — retry once.
			s.segmu.RUnlock()
			continue
		}
		value, flags, err = s.readRecord(seg, lc, key, dst)
		s.segmu.RUnlock()
		if err == ErrCorrupt {
			s.dropEntry(key, lc)
			s.corrupt.Add(1)
			s.misses.Add(1)
			return nil, 0, time.Time{}, ErrCorrupt
		}
		if err != nil {
			s.misses.Add(1)
			return nil, 0, time.Time{}, err
		}
		s.hits.Add(1)
		if lc.expires != 0 {
			expires = time.Unix(0, lc.expires)
		}
		return value, flags, expires, nil
	}
	s.misses.Add(1)
	return nil, 0, time.Time{}, ErrNotFound
}

// readRecord reads and verifies one frame. Caller holds segmu.RLock
// so the file cannot be closed mid-read. The whole frame is read into
// dst's spare capacity in a single pread and the value shifted down
// over the header+key afterwards, so a caller that provisions dst
// (value size + frame overhead) pays zero allocations.
func (s *Store) readRecord(seg *segment, lc loc, key, dst []byte) ([]byte, uint32, error) {
	if int(lc.size) < frameHeaderSize+len(key) {
		return nil, 0, ErrCorrupt
	}
	base := len(dst)
	total := base + int(lc.size)
	if cap(dst) >= total {
		dst = dst[:total]
	} else {
		nd := make([]byte, total, total+frameHeaderSize+MaxKeyLen)
		copy(nd, dst)
		dst = nd
	}
	frame := dst[base:total]
	if _, err := seg.file.ReadAt(frame, lc.off); err != nil {
		return nil, 0, ErrCorrupt
	}
	h := parseFrameHeader(frame)
	if h.typ != recPut || h.keyLen != len(key) ||
		frameSize(h.keyLen, h.valLen) != int64(lc.size) ||
		!bytes.Equal(frame[frameHeaderSize:frameHeaderSize+h.keyLen], key) {
		return nil, 0, ErrCorrupt
	}
	crc := crc32Update(0, frame[:19])
	crc = crc32Update(crc, frame[frameHeaderSize:])
	if crc != h.crc {
		return nil, 0, ErrCorrupt
	}
	copy(frame, frame[frameHeaderSize+h.keyLen:])
	return dst[:base+h.valLen], h.flags, nil
}

// dropEntry removes key from the index iff it still maps to lc,
// crediting the dead bytes to the owning segment.
func (s *Store) dropEntry(key []byte, lc loc) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	cur, ok := sh.m[string(key)]
	if ok && cur == lc {
		delete(sh.m, string(key))
		s.keys.Add(-1)
	} else {
		ok = false
	}
	sh.mu.Unlock()
	if ok {
		s.addDead(lc.seg, int64(lc.size))
	}
}

func (s *Store) addDead(segID uint64, n int64) {
	s.segmu.RLock()
	if seg := s.segments[segID]; seg != nil {
		seg.dead.Add(n)
	}
	s.segmu.RUnlock()
}

// PutAsync enqueues a write on the bounded eviction queue, reporting
// whether it was accepted. This is the cache.OnEvict feed: it must
// never block the shard lock of the RAM tier, so a full queue sheds
// the write instead of waiting. Key and value are strings, immutable,
// so they are queued as they are.
func (s *Store) PutAsync(key string, value string, flags uint32, expires time.Time) bool {
	if s.closed.Load() {
		return false
	}
	if len(key) == 0 || len(key) > MaxKeyLen || len(value) > maxValueBytes {
		s.drops.Add(1)
		return false
	}
	exp := nano(expires)
	if exp != 0 && s.clock().UnixNano() >= exp {
		return false // expired victim: not worth a disk write
	}
	select {
	case s.queue <- putReq{key: key, value: value, flags: flags, expires: exp, gen: s.gen.Load()}:
		s.queued.Add(1)
		return true
	default:
		s.drops.Add(1)
		return false
	}
}

// writer drains the eviction queue onto the log, dropping the writes
// queued before the last FlushAll.
func (s *Store) writer() {
	defer s.wg.Done()
	apply := func(r putReq) {
		s.wmu.Lock()
		if !s.closed.Load() && r.gen == s.gen.Load() {
			_ = putLocked(s, []byte(r.key), r.value, r.flags, r.expires)
		}
		s.wmu.Unlock()
		s.done.Add(1)
	}
	for {
		select {
		case r := <-s.queue:
			apply(r)
		case <-s.stop:
			for {
				select {
				case r := <-s.queue:
					apply(r)
				default:
					return
				}
			}
		}
	}
}

// putLocked appends one record and indexes it. Caller holds wmu.
func putLocked[V string | []byte](s *Store, key []byte, value V, flags uint32, exp int64) error {
	fsize := frameSize(len(key), len(value))
	if s.active.size.Load()+fsize+frameHeaderSize > s.opts.SegmentBytes &&
		s.active.size.Load() > segHeaderSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	seg := s.active
	off := seg.size.Load()
	s.wbuf = appendFrame(s.wbuf[:0], recPut, key, value, flags, exp)
	if err := s.writeFrameLocked(seg, off); err != nil {
		return err
	}
	lc := loc{seg: seg.id, off: off, size: uint32(fsize), expires: exp}
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, existed := sh.m[string(key)]
	sh.m[string(key)] = lc
	if !existed {
		s.keys.Add(1)
	}
	sh.mu.Unlock()
	if existed {
		s.addDead(old.seg, int64(old.size))
	}
	s.puts.Add(1)
	s.putBytes.Add(fsize)
	s.maybeCompactLocked()
	return nil
}

// writeFrameLocked writes s.wbuf at off, rolling the segment back to
// off on a short write so the log never contains a half-frame followed
// by more appends (recovery would truncate everything after it).
func (s *Store) writeFrameLocked(seg *segment, off int64) error {
	if _, err := seg.file.WriteAt(s.wbuf, off); err != nil {
		_ = seg.file.Truncate(off)
		return fmt.Errorf("extstore: append: %w", err)
	}
	seg.size.Store(off + int64(len(s.wbuf)))
	return nil
}

// Delete invalidates key in the disk tier, appending a tombstone so
// the invalidation survives a crash. Reports whether the key was
// present on disk.
func (s *Store) Delete(key []byte) bool {
	if validateKey(key) != nil || s.closed.Load() {
		return false
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	lc, ok := sh.m[string(key)]
	if ok {
		delete(sh.m, string(key))
		s.keys.Add(-1)
	}
	sh.mu.Unlock()
	if !ok {
		return false
	}
	s.addDead(lc.seg, int64(lc.size))
	s.deletes.Add(1)
	s.wmu.Lock()
	if !s.closed.Load() {
		off := s.active.size.Load()
		s.wbuf = appendFrame(s.wbuf[:0], recDelete, key, "", 0, 0)
		if s.writeFrameLocked(s.active, off) == nil {
			// A tombstone is dead weight from birth.
			s.active.dead.Add(frameSize(len(key), 0))
		}
	}
	s.wmu.Unlock()
	return true
}

// FlushAll atomically drops the entire disk tier: the index is
// cleared, every segment file is unlinked and a fresh active segment
// is opened — the disk half of a memcached flush_all. It is final: an
// async write queued before it, still in the queue or in the writer's
// hand, is dropped rather than landing after it.
func (s *Store) FlushAll() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.gen.Add(1)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
	s.keys.Store(0)
	s.segmu.RLock()
	doomed := make([]*segment, 0, len(s.segments))
	for _, seg := range s.segments {
		doomed = append(doomed, seg)
	}
	s.segmu.RUnlock()
	for _, seg := range doomed {
		s.reclaimed.Add(seg.size.Load())
		s.removeSegmentLocked(seg)
	}
	s.active = nil
	return s.openActiveLocked()
}

// Len reports the number of indexed keys.
func (s *Store) Len() int64 { return s.keys.Load() }

// Bytes reports the total on-disk footprint.
func (s *Store) Bytes() int64 {
	var n int64
	s.segmu.RLock()
	for _, seg := range s.segments {
		n += seg.size.Load()
	}
	s.segmu.RUnlock()
	return n
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	var segs int
	var bytes, dead int64
	s.segmu.RLock()
	for _, seg := range s.segments {
		segs++
		bytes += seg.size.Load()
		dead += seg.dead.Load()
	}
	s.segmu.RUnlock()
	return Stats{
		Keys:             s.keys.Load(),
		Segments:         segs,
		SegmentBytes:     bytes,
		DeadBytes:        dead,
		Gets:             s.gets.Load(),
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Expired:          s.expired.Load(),
		Puts:             s.puts.Load(),
		PutBytes:         s.putBytes.Load(),
		Drops:            s.drops.Load(),
		Deletes:          s.deletes.Load(),
		Corrupt:          s.corrupt.Load(),
		Compactions:      s.compactions.Load(),
		Relocated:        s.relocated.Load(),
		ReclaimedBytes:   s.reclaimed.Load(),
		DroppedSegments:  s.droppedSegs.Load(),
		TruncatedBytes:   s.truncated.Load(),
		RecoveredRecords: s.recovered,
	}
}

// Flush blocks until the writer has finished with every write enqueued
// before the call (tests and graceful drains use it; the hot path never
// does). An empty queue is not enough: the writer may hold the last
// write, not yet applied.
func (s *Store) Flush() {
	for target := s.queued.Load(); s.done.Load() < target && !s.closed.Load(); {
		time.Sleep(100 * time.Microsecond)
	}
}

// Close stops the async writer (draining queued writes) and closes all
// segment files. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.closed.Load() {
		return ErrClosed
	}
	close(s.stop)
	s.wg.Wait()
	s.closed.Store(true)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.segmu.Lock()
	defer s.segmu.Unlock()
	var first error
	for _, seg := range s.segments {
		if err := seg.file.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
