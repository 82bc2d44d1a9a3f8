package extstore

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkExtstoreRead is the disk-hit path: index lookup, two preads
// and a checksum. With a preallocated dst it must stay allocation-free
// — the server's miss path calls this before touching the backend.
func BenchmarkExtstoreRead(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const keys = 1024
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte(i)
	}
	keyBufs := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyBufs[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
		if err := s.put(keyBufs[i], val, 0, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := s.getInto(keyBufs[i%keys], dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(v) != len(val) {
			b.Fatal("short read")
		}
	}
}

// BenchmarkExtstoreWrite is the eviction-fed append path: frame
// encode, one pwrite, index update (rotation and compaction amortized
// in).
func BenchmarkExtstoreWrite(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), SegmentBytes: 16 << 20, MaxBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 256)
	const keys = 4096
	keyBufs := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		keyBufs[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.put(keyBufs[i%keys], val, 0, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathAllocs pins what the two benchmarks above show that does
// not depend on the machine: an indexed Lookup of a warmed key into a
// large-enough dst allocates nothing (the server's miss path runs it
// per RAM miss), and a sync Put of an indexed key allocates at most
// twice (what the write benchmark, which overwrites, has always shown).
func TestHotPathAllocs(t *testing.T) {
	settles(t)
	s, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 256)
	const keys = 256
	keyBufs := make([][]byte, keys)
	for i := range keyBufs {
		keyBufs[i] = []byte(fmt.Sprintf("alloc-key-%06d", i))
		if err := s.put(keyBufs[i], val, 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 0, 512)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, _, err := s.Lookup(keyBufs[i%keys], dst[:0]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("Lookup of a warmed key = %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := s.put(keyBufs[i%keys], val, 0, time.Time{}); err != nil {
			t.Fatal(err)
		}
		i++
	}); n > 2 {
		t.Errorf("sync Put = %v allocs/op, want <= 2", n)
	}
}
