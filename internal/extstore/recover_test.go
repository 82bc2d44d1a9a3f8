package extstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// logOp is one append the property test performed, with its on-disk
// frame size — enough to replay the durable prefix independently of
// the store's own scanner.
type logOp struct {
	del   bool
	key   string
	value string
	size  int64
}

// TestCrashRecoveryProperty is the torn-tail property test: append N
// records (puts, overwrites, deletes) into a single live segment,
// "crash" (close the files without sealing), truncate the segment at
// a random byte, reopen, and assert the rebuilt index equals a replay
// of exactly the frames that fit the truncated prefix — nothing
// resurrected, nothing lost, no partial frame admitted.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			settles(t)
			dir := t.TempDir()
			// One big segment so the random cut always lands in the
			// live log rather than a sealed file.
			s, err := Open(Options{Dir: dir, SegmentBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			var ops []logOp
			present := map[string]bool{}
			n := 50 + rng.Intn(150)
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("key-%03d", rng.Intn(40))
				if present[key] && rng.Intn(5) == 0 {
					if !s.Delete([]byte(key)) {
						t.Fatalf("Delete(%s) = false, want true", key)
					}
					ops = append(ops, logOp{del: true, key: key, size: frameSize(len(key), 0)})
					present[key] = false
					continue
				}
				value := fmt.Sprintf("%s#%d#%s", key, i, randHex(rng, rng.Intn(64)))
				if err := s.put([]byte(key), []byte(value), uint32(i), time.Time{}); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, logOp{key: key, value: value, size: frameSize(len(key), len(value))})
				present[key] = true
			}
			segPath := s.active.path
			logSize := s.active.size.Load()
			s.Close() // simulate crash: no footer is written

			// Truncate at a random byte anywhere in the frame region.
			cut := segHeaderSize + rng.Int63n(logSize-segHeaderSize+1)
			if err := os.Truncate(segPath, cut); err != nil {
				t.Fatal(err)
			}

			// Replay the durable prefix: frames wholly inside the cut.
			want := map[string]string{}
			off := int64(segHeaderSize)
			durable := 0
			for _, op := range ops {
				if off+op.size > cut {
					break
				}
				if op.del {
					delete(want, op.key)
				} else {
					want[op.key] = op.value
				}
				off += op.size
				durable++
			}

			r, err := Open(Options{Dir: dir, SegmentBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			if got := r.Len(); got != int64(len(want)) {
				t.Fatalf("recovered %d keys, want %d (cut=%d of %d, %d/%d ops durable)",
					got, len(want), cut, logSize, durable, len(ops))
			}
			for key, value := range want {
				v, _, err := r.getInto([]byte(key), nil)
				if err != nil {
					t.Fatalf("recovered Get(%s): %v", key, err)
				}
				if string(v) != value {
					t.Fatalf("recovered Get(%s) = %q, want %q", key, v, value)
				}
			}
			// The torn bytes are accounted and physically gone.
			if cut > off {
				if st := r.Stats(); st.TruncatedBytes != cut-off {
					t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, cut-off)
				}
			}
			fi, err := os.Stat(segPath)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != off {
				t.Fatalf("live segment is %d bytes after reopen, want durable prefix %d", fi.Size(), off)
			}

			// And the reopened store keeps working: new appends land
			// after the cut and read back.
			if err := r.put([]byte("post-crash"), []byte("alive"), 0, time.Time{}); err != nil {
				t.Fatal(err)
			}
			if v, _, err := r.getInto([]byte("post-crash"), nil); err != nil || string(v) != "alive" {
				t.Fatalf("post-crash put/get = %q, %v", v, err)
			}
		})
	}
}

func randHex(rng *rand.Rand, n int) string {
	const hex = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = hex[rng.Intn(len(hex))]
	}
	return string(b)
}

// TestRecoveryMultiSegment covers the sealed-segment path: rotation
// writes footers, reopen trusts them, and tombstones plus overwrites
// resolve across segment boundaries.
func TestRecoveryMultiSegment(t *testing.T) {
	settles(t)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, MaxBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 300)
	for i := 0; i < 60; i++ {
		if err := s.put([]byte(fmt.Sprintf("multi-%03d", i)), val, uint32(i), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite some early keys (their new records live in later
	// segments) and delete others.
	if err := s.put([]byte("multi-001"), []byte("fresh"), 99, time.Time{}); err != nil {
		t.Fatal(err)
	}
	s.Delete([]byte("multi-002"))
	wantKeys := s.Len()
	s.Close()

	r, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, MaxBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Len(); got != wantKeys {
		t.Fatalf("recovered %d keys, want %d", got, wantKeys)
	}
	if v, flags, err := r.getInto([]byte("multi-001"), nil); err != nil || string(v) != "fresh" || flags != 99 {
		t.Fatalf("overwrite lost in recovery: %q flags=%d err=%v", v, flags, err)
	}
	if _, _, err := r.getInto([]byte("multi-002"), nil); err != ErrNotFound {
		t.Fatalf("tombstone lost in recovery: err = %v, want ErrNotFound", err)
	}
	if v, _, err := r.getInto([]byte("multi-059"), nil); err != nil || !bytes.Equal(v, val) {
		t.Fatalf("tail key lost in recovery: err = %v", err)
	}
	if st := r.Stats(); st.RecoveredRecords != wantKeys {
		t.Fatalf("RecoveredRecords = %d, want %d", st.RecoveredRecords, wantKeys)
	}
}

// TestRecoveryExpiredEntries: expiry deadlines survive the round trip
// and expired records recovered into the index die on first read.
func TestRecoveryExpiredEntries(t *testing.T) {
	settles(t)
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := Open(Options{Dir: dir, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.put([]byte("short"), []byte("v"), 0, clk.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := s.put([]byte("long"), []byte("v"), 0, clk.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	clk.Advance(30 * time.Minute)
	r, err := Open(Options{Dir: dir, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.getInto([]byte("short"), nil); err != ErrNotFound {
		t.Fatalf("expired key err = %v, want ErrNotFound", err)
	}
	if _, _, err := r.getInto([]byte("long"), nil); err != nil {
		t.Fatalf("live key err = %v", err)
	}
}

// TestRecoveryIgnoresForeignFiles: stray files in the directory are
// neither indexed nor destroyed.
func TestRecoveryIgnoresForeignFiles(t *testing.T) {
	settles(t)
	dir := t.TempDir()
	stray := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(stray, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(dir, segFileName(7))
	if err := os.WriteFile(bogus, []byte("wrong magic but right name"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file disturbed: %v", err)
	}
}
