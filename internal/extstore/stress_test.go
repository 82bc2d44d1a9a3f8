package extstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentReadAppendCompact is the -race stress test: readers,
// synchronous and async writers, a deleter and an explicit compactor
// all hammer one store. Values embed their key, so any read that
// returns the wrong record's bytes (a torn relocation, a stale index
// entry served after its segment was reclaimed) fails loudly rather
// than silently.
func TestConcurrentReadAppendCompact(t *testing.T) {
	s := mustOpen(t, Options{
		SegmentBytes: 8 << 10,
		MaxBytes:     1 << 20,
	})
	const (
		keySpace = 64
		writers  = 3
		readers  = 4
		opsPer   = 400
	)
	keyOf := func(i int) string { return fmt.Sprintf("stress-%03d", i) }
	valOf := func(key string, n int) []byte {
		return []byte(fmt.Sprintf("%s|%04d|%s", key, n, bytes.Repeat([]byte("p"), 64+n%128)))
	}

	var wrongReads atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPer; i++ {
				key := keyOf(rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0:
					s.Delete([]byte(key))
				case 1:
					s.PutAsync(key, string(valOf(key, i)), 0, time.Time{})
				default:
					if err := s.put([]byte(key), valOf(key, i), 0, time.Time{}); err != nil {
						t.Errorf("Put(%s): %v", key, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			dst := make([]byte, 0, 512)
			for i := 0; i < opsPer*2; i++ {
				key := keyOf(rng.Intn(keySpace))
				v, _, err := s.getInto([]byte(key), dst[:0])
				if err != nil {
					continue // miss/raced delete: fine
				}
				if !bytes.HasPrefix(v, []byte(key+"|")) {
					wrongReads.Add(1)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := s.compact(); err != nil && err != ErrClosed {
				t.Errorf("Compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	s.Flush()
	if n := wrongReads.Load(); n != 0 {
		t.Fatalf("%d reads returned bytes for the wrong key", n)
	}
	// Post-stress sanity: everything still indexed reads back clean.
	for i := 0; i < keySpace; i++ {
		key := keyOf(i)
		v, _, err := s.getInto([]byte(key), nil)
		if err != nil {
			continue
		}
		if !bytes.HasPrefix(v, []byte(key+"|")) {
			t.Fatalf("final Get(%s) returned foreign bytes", key)
		}
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("stress produced %d corrupt reads", st.Corrupt)
	}
}
