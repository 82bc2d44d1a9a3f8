package keylog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	give := []Record{
		{Offset: 0, Key: "a"},
		{Offset: 1500 * time.Nanosecond, Key: "b:2"},
		{Offset: time.Second, Key: "c-3"},
	}
	for _, rec := range give {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(give) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range give {
		if got[i] != give[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], give[i])
		}
	}
}

func TestWriterValidation(t *testing.T) {
	w := NewWriter(io.Discard)
	bad := []Record{
		{Key: ""},
		{Key: "has space"},
		{Key: "has\nnewline"},
		{Offset: -1, Key: "k"},
	}
	for _, rec := range bad {
		if err := w.Write(rec); err == nil {
			t.Errorf("record %+v accepted", rec)
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n100 key-1\n   \n200 key-2\n"
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Key != "key-2" {
		t.Errorf("got %+v", got)
	}
}

func TestReaderSyntaxErrors(t *testing.T) {
	bad := []string{
		"nokey\n",
		"abc key\n",
		"-5 key\n",
		"100 two words\n",
		"100 \n",
		"100 a\rb\n",
	}
	for _, in := range bad {
		_, err := NewReader(strings.NewReader(in)).ReadAll()
		if !errors.Is(err, ErrSyntax) {
			t.Errorf("%q: err = %v", in, err)
		}
	}
}

func TestKeysExtraction(t *testing.T) {
	recs := []Record{{Key: "x"}, {Key: "y"}}
	keys := Keys(recs)
	if len(keys) != 2 || keys[0] != "x" || keys[1] != "y" {
		t.Errorf("keys = %v", keys)
	}
}

func TestReplayOrderAndCompletion(t *testing.T) {
	records := []Record{
		{Offset: 0, Key: "a"},
		{Offset: time.Millisecond, Key: "b"},
		{Offset: 2 * time.Millisecond, Key: "c"},
	}
	var seen []string
	err := Replay(context.Background(), records, 0, func(key string) error {
		seen = append(seen, key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(seen, "") != "abc" {
		t.Errorf("order = %v", seen)
	}
}

func TestReplayHonorsTiming(t *testing.T) {
	records := []Record{
		{Offset: 0, Key: "a"},
		{Offset: 60 * time.Millisecond, Key: "b"},
	}
	start := time.Now()
	if err := Replay(context.Background(), records, 1.0, func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("replay finished in %v, should pace to ~60ms", elapsed)
	}
	// Speedup 10x compresses the same trace to ~6ms.
	start = time.Now()
	if err := Replay(context.Background(), records, 10, func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Errorf("10x replay took %v", elapsed)
	}
}

func TestReplayStopsOnError(t *testing.T) {
	records := []Record{{Key: "a"}, {Key: "boom"}, {Key: "c"}}
	calls := 0
	err := Replay(context.Background(), records, 0, func(key string) error {
		calls++
		if key == "boom" {
			return errors.New("kaput")
		}
		return nil
	})
	if err == nil || calls != 2 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
	if Replay(context.Background(), records, 0, nil) == nil {
		t.Error("nil fn accepted")
	}
}

func TestReplayContextCancel(t *testing.T) {
	records := []Record{
		{Offset: 0, Key: "a"},
		{Offset: 10 * time.Second, Key: "slow"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Replay(ctx, records, 1.0, func(string) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancel did not interrupt the wait")
	}
}

// Property: any trace of valid keys round-trips exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(offsets []uint32, keyIDs []uint16) bool {
		n := len(offsets)
		if len(keyIDs) < n {
			n = len(keyIDs)
		}
		if n == 0 {
			return true
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var give []Record
		for i := 0; i < n; i++ {
			rec := Record{
				Offset: time.Duration(offsets[i]),
				Key:    fmt.Sprintf("key-%d", keyIDs[i]),
			}
			give = append(give, rec)
			if err := w.Write(rec); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil || len(got) != n {
			return false
		}
		for i := range give {
			if got[i] != give[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
