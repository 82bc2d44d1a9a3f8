// Package extstore is the log-structured SSD-backed second cache tier:
// values evicted from the RAM cache are appended to on-disk segments and
// indexed in memory, so a subsequent RAM miss becomes a cheap disk hit
// instead of a full backend fetch. The design follows memcached's
// extstore: append-only segment files, an FNV-sharded in-memory
// key→(segment,offset,length) index, TTL-aware compaction that
// reclaims dead and expired bytes, and WAL-style recovery — a crashed
// process rebuilds the index by scanning segments and truncates the
// torn tail of the live segment at the first record that fails its
// checksum.
package extstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Result errors.
var (
	// ErrNotFound: the key is not on disk (or expired, or invalidated).
	ErrNotFound = errors.New("extstore: not found")
	// ErrCorrupt: the record failed its checksum or framing check.
	ErrCorrupt = errors.New("extstore: corrupt record")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("extstore: store closed")
	// ErrKeyInvalid: empty or oversized key.
	ErrKeyInvalid = errors.New("extstore: invalid key")
)

// MaxKeyLen mirrors memcached's 250-byte key limit.
const MaxKeyLen = 250

// Segment files start with a fixed header so a scan can reject foreign
// files before trusting any frame in them.
const (
	segMagic      = "MQXSEG1\n"
	segHeaderSize = 16 // magic (8) + segment id (8)
)

// Record frame types. A segment is a sequence of frames after the
// header: puts carry key+value payloads, deletes are key-only
// tombstones (so invalidations survive a crash), and a footer frame
// marks a cleanly sealed segment — a scan that reaches the footer knows
// the segment is complete; a scan that does not hits either the live
// append point or a torn tail.
const (
	recPut    byte = 1
	recDelete byte = 2
	recFooter byte = 3
)

// frameHeaderSize is the fixed prefix of every frame:
// type (1) + keyLen (2) + valLen (4) + flags (4) + expires (8) + crc (4).
const frameHeaderSize = 23

// crcTable is Castagnoli — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crc32Update is a shorthand over the shared table.
func crc32Update(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crcTable, p)
}

// frameHeader is the decoded fixed prefix of a frame.
type frameHeader struct {
	typ     byte
	keyLen  int
	valLen  int
	flags   uint32
	expires int64 // unix nanos; 0 = never expires
	crc     uint32
}

// frameSize is the on-disk footprint of a frame with the given payload.
func frameSize(keyLen, valLen int) int64 {
	return frameHeaderSize + int64(keyLen) + int64(valLen)
}

// appendFrame encodes one frame (header + key + value) onto buf. The
// CRC covers the header prefix (sans CRC field) plus both payloads, so
// a torn write anywhere in the frame is detected on scan. The value is
// a string when it is an evicted cache item, which is immutable and
// queued uncopied, and a slice of a segment when it is relocated.
func appendFrame[V string | []byte](buf []byte, typ byte, key []byte, value V, flags uint32, expires int64) []byte {
	start := len(buf)
	var hdr [frameHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(value)))
	binary.LittleEndian.PutUint32(hdr[7:11], flags)
	binary.LittleEndian.PutUint64(hdr[11:19], uint64(expires))
	buf = append(buf, hdr[:]...)
	buf = append(buf, key...)
	buf = append(buf, value...)
	crc := crc32.Update(0, crcTable, buf[start:start+19])
	crc = crc32.Update(crc, crcTable, buf[start+frameHeaderSize:])
	binary.LittleEndian.PutUint32(buf[start+19:start+23], crc)
	return buf
}

// parseFrameHeader decodes the fixed prefix. b must be at least
// frameHeaderSize long.
func parseFrameHeader(b []byte) frameHeader {
	return frameHeader{
		typ:     b[0],
		keyLen:  int(binary.LittleEndian.Uint16(b[1:3])),
		valLen:  int(binary.LittleEndian.Uint32(b[3:7])),
		flags:   binary.LittleEndian.Uint32(b[7:11]),
		expires: int64(binary.LittleEndian.Uint64(b[11:19])),
		crc:     binary.LittleEndian.Uint32(b[19:23]),
	}
}

// appendSegHeader encodes the segment file header.
func appendSegHeader(buf []byte, id uint64) []byte {
	buf = append(buf, segMagic...)
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], id)
	return append(buf, idb[:]...)
}

// parseSegHeader validates the magic and returns the recorded id.
func parseSegHeader(b []byte) (uint64, bool) {
	if len(b) < segHeaderSize || string(b[:len(segMagic)]) != segMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[len(segMagic):segHeaderSize]), true
}

// FrameCost reports the on-disk footprint of one stored record (header
// plus key and value payloads), so capacity planners can convert an
// item budget into a MaxBytes segment budget.
func FrameCost(keyLen, valueLen int) int64 { return frameSize(keyLen, valueLen) }
