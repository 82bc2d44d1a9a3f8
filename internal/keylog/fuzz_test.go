package keylog

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzKeylogReader: no input panics the reader, and every record it
// accepts — up to its first error — goes through a Writer and reads
// back identically.
func FuzzKeylogReader(f *testing.F) {
	for _, seed := range []string{
		"# journal\n0 a\n1500 b:2\n\n   \n1000000000 c-3\n",
		"+12  key\t\r\n007 k\x00\n",
		"5 a\rb\n",
		"nokey\n100 two words\n-5 k\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A line at the reader's 64 KiB limit can outgrow it once the
		// writer adds the newline it lacked.
		if len(data) >= 64<<10 {
			return
		}
		var recs []Record
		for r := NewReader(bytes.NewReader(data)); ; {
			rec, err := r.Next()
			if err != nil {
				break
			}
			recs = append(recs, rec)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatalf("the reader accepted %+v from %q; the writer refuses it: %v", rec, data, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := NewReader(&buf).ReadAll()
		if err != nil || !slices.Equal(back, recs) {
			t.Fatalf("%q wrote as %q, which reads back as %+v (%v), not %+v", data, buf.Bytes(), back, err, recs)
		}
	})
}
