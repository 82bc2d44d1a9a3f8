package extstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecoverSegment writes a valid segment header followed by fuzzed
// frame bytes as a segment file and opens a store over it. Whatever the
// bytes, Open must recover without error; every key it indexes must
// read back as a value or ErrNotFound (expired), never ErrCorrupt, since
// recovery indexes only checksum-verified frames; and a Close and second
// Open must recover the same number of keys, so the torn-tail cut is
// idempotent.
func FuzzRecoverSegment(f *testing.F) {
	clean := appendFrame(nil, recPut, []byte("k1"), []byte("v1"), 0, 0)
	clean = appendFrame(clean, recPut, []byte("k2"), []byte("value-2"), 7, 0)
	clean = appendFrame(clean, recDelete, []byte("k1"), "", 0, 0)
	clean = appendFrame(clean, recPut, []byte("k3"), []byte("gone"), 0, 1) // expired
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                                              // torn tail
	f.Add(appendFrame(append([]byte{}, clean...), recFooter, nil, "", 0, 0)) // sealed
	f.Fuzz(func(t *testing.T, frames []byte) {
		dir := t.TempDir()
		seg := append(appendSegHeader(nil, 0), frames...)
		if err := os.WriteFile(filepath.Join(dir, segFileName(0)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		recovered := s.Len()
		var keys []string
		for i := range s.shards {
			for k := range s.shards[i].m {
				keys = append(keys, k)
			}
		}
		for _, k := range keys {
			if _, _, _, err := s.Lookup([]byte(k), nil); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("Lookup(%q) of a recovered key: %v", k, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		again, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer again.Close()
		if n := again.Len(); n != recovered {
			t.Fatalf("second Open recovered %d keys, the first %d", n, recovered)
		}
	})
}
