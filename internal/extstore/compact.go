package extstore

import (
	"fmt"
	"os"
)

// rotateLocked seals the active segment (footer frame marks it
// cleanly complete) and opens a fresh one. Caller holds wmu.
func (s *Store) rotateLocked() error {
	seg := s.active
	off := seg.size.Load()
	s.wbuf = appendFrame(s.wbuf[:0], recFooter, nil, "", 0, 0)
	if err := s.writeFrameLocked(seg, off); err != nil {
		return err
	}
	seg.sealed = true
	return s.openActiveLocked()
}

// maybeCompactLocked reclaims space after appends: sealed segments
// whose dead fraction crossed the threshold are compacted (live,
// unexpired records relocate to the active segment; the file is
// removed), and when live data alone still exceeds the byte budget,
// whole oldest segments are evicted. Caller holds wmu; the compacting
// flag stops the relocation appends from re-entering.
func (s *Store) maybeCompactLocked() {
	if s.compacting {
		return
	}
	s.compacting = true
	defer func() { s.compacting = false }()
	// Bound the passes: each pass removes one segment, so the segment
	// count at entry is a natural ceiling.
	for passes := s.segmentCount() + 1; passes > 0; passes-- {
		victim, ratio := s.pickVictimLocked()
		switch {
		case victim != nil && ratio >= compactThreshold:
			s.compactSegmentLocked(victim)
		case s.Bytes() > s.opts.MaxBytes && victim != nil && ratio > 0.05:
			s.compactSegmentLocked(victim)
		case s.Bytes() > s.opts.MaxBytes:
			if !s.dropOldestLocked() {
				return
			}
		default:
			return
		}
	}
}

func (s *Store) segmentCount() int {
	s.segmu.RLock()
	n := len(s.segments)
	s.segmu.RUnlock()
	return n
}

// pickVictimLocked returns the sealed segment with the highest dead
// fraction. Caller holds wmu.
func (s *Store) pickVictimLocked() (*segment, float64) {
	var best *segment
	var bestRatio float64
	s.segmu.RLock()
	for _, seg := range s.segments {
		if seg == s.active || !seg.sealed {
			continue
		}
		size := seg.size.Load()
		if size <= segHeaderSize {
			continue
		}
		ratio := float64(seg.dead.Load()) / float64(size)
		if best == nil || ratio > bestRatio {
			best, bestRatio = seg, ratio
		}
	}
	s.segmu.RUnlock()
	return best, bestRatio
}

// compactSegmentLocked relocates the victim's live records to the
// active segment and removes its file. Caller holds wmu with the
// compacting flag set. Readers retry through the index, which is
// repointed before the segment disappears.
func (s *Store) compactSegmentLocked(victim *segment) error {
	data, err := s.readSegment(victim)
	if err != nil {
		return err
	}
	now := s.clock().UnixNano()
	var relocated int64
	s.iterFrames(data, func(off int64, h frameHeader, key, value []byte) bool {
		if h.typ != recPut {
			return true
		}
		want := loc{seg: victim.id, off: off, size: uint32(frameSize(h.keyLen, h.valLen)), expires: h.expires}
		sh := s.shardFor(key)
		sh.mu.RLock()
		cur, ok := sh.m[string(key)]
		sh.mu.RUnlock()
		if !ok || cur != want {
			return true // overwritten or deleted: dead already
		}
		if h.expires != 0 && now >= h.expires {
			s.dropEntry(key, want)
			s.expired.Add(1)
			return true
		}
		// Relocate: append to the active log, repoint the index.
		if err := putLocked(s, key, value, h.flags, h.expires); err != nil {
			return false
		}
		s.puts.Add(-1) // relocations are not user puts
		relocated++
		return true
	})
	s.relocated.Add(relocated)
	s.compactions.Add(1)
	s.reclaimed.Add(victim.size.Load())
	s.removeSegmentLocked(victim)
	return nil
}

// dropOldestLocked evicts the lowest-id sealed segment wholesale —
// the budget enforcement of last resort when live data alone exceeds
// MaxBytes. Its still-live keys fall back to backend misses.
func (s *Store) dropOldestLocked() bool {
	var oldest *segment
	s.segmu.RLock()
	for _, seg := range s.segments {
		if seg == s.active || !seg.sealed {
			continue
		}
		if oldest == nil || seg.id < oldest.id {
			oldest = seg
		}
	}
	s.segmu.RUnlock()
	if oldest == nil {
		return false
	}
	data, err := s.readSegment(oldest)
	if err == nil {
		s.iterFrames(data, func(off int64, h frameHeader, key, value []byte) bool {
			if h.typ != recPut {
				return true
			}
			want := loc{seg: oldest.id, off: off, size: uint32(frameSize(h.keyLen, h.valLen)), expires: h.expires}
			s.dropEntry(key, want)
			return true
		})
	}
	s.droppedSegs.Add(1)
	s.reclaimed.Add(oldest.size.Load())
	s.removeSegmentLocked(oldest)
	return true
}

// readSegment snapshots a segment's valid bytes (header included).
func (s *Store) readSegment(seg *segment) ([]byte, error) {
	size := seg.size.Load()
	data := make([]byte, size)
	if _, err := seg.file.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("extstore: compact read: %w", err)
	}
	return data, nil
}

// removeSegmentLocked unmaps, closes and unlinks a segment. Taking
// segmu exclusively here is what makes in-flight ReadAt safe: readers
// hold the shared side for the duration of the read.
func (s *Store) removeSegmentLocked(seg *segment) {
	s.segmu.Lock()
	delete(s.segments, seg.id)
	s.segmu.Unlock()
	seg.file.Close()
	os.Remove(seg.path)
}

// iterFrames walks the frames in a scanned segment image, verifying
// every checksum, stopping at the footer, a torn or corrupt frame, or
// when fn returns false. It returns the byte offset of the valid
// prefix (the truncation point for a torn live segment) and whether a
// clean footer was reached. fn may be nil to validate only.
func (s *Store) iterFrames(data []byte, fn func(off int64, h frameHeader, key, value []byte) bool) (validEnd int64, sealed bool) {
	off := int64(segHeaderSize)
	n := int64(len(data))
	for off+frameHeaderSize <= n {
		h := parseFrameHeader(data[off:])
		switch h.typ {
		case recFooter:
			if h.keyLen != 0 || h.valLen != 0 || crc32Update(0, data[off:off+19]) != h.crc {
				return off, false
			}
			return off + frameHeaderSize, true
		case recPut, recDelete:
			end := off + frameSize(h.keyLen, h.valLen)
			if h.keyLen == 0 || h.keyLen > MaxKeyLen ||
				h.valLen > maxValueBytes || end > n {
				return off, false
			}
			crc := crc32Update(0, data[off:off+19])
			crc = crc32Update(crc, data[off+frameHeaderSize:end])
			if crc != h.crc {
				return off, false
			}
			if fn != nil {
				key := data[off+frameHeaderSize : off+frameHeaderSize+int64(h.keyLen)]
				value := data[off+frameHeaderSize+int64(h.keyLen) : end]
				if !fn(off, h, key, value) {
					return off, false
				}
			}
			off = end
		default:
			return off, false
		}
	}
	return off, false
}
