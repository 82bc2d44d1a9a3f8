package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"strings"
	"testing"
	"unsafe"
)

// refScanReply is the reply grammar spelled out with the framer's own
// field splitter and number parser: what ScanReply's in-place VALUE
// cutter has to agree with on every line.
func refScanReply(r *bufio.Reader) (Reply, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return Reply{}, err
	}
	rep := Reply{Line: line}
	text := bytes.TrimRight(line, "\r\n")
	switch {
	case len(text) > 6 && string(text[:6]) == "VALUE ":
		f := appendFields(nil, text)
		if len(f) != 4 && len(f) != 5 {
			break
		}
		flags, okF := parseUintB(f[2], 32)
		n, okN := parseUintB(f[3], 31)
		cas, okC := uint64(0), true
		if len(f) == 5 {
			cas, okC = parseUintB(f[4], 64)
		}
		if okF && okN && okC && n <= MaxValueBytes {
			rep.Kind, rep.Key, rep.Flags, rep.Bytes, rep.CAS = ReplyValue, f[1], uint32(flags), int(n), cas
		}
	case string(text) == RespEnd:
		rep.Kind = ReplyEnd
	case IsErrorReply(text):
		rep.Kind = ReplyError
	}
	return rep, nil
}

// refReadRetrieval reads one retrieval reply the plain way — a copy per
// key, an allocation per value — over refScanReply.
func refReadRetrieval(r *bufio.Reader) ([]ValueItem, error) {
	var items []ValueItem
	for {
		rep, err := refScanReply(r)
		if err != nil {
			return nil, err
		}
		switch rep.Kind {
		case ReplyEnd:
			return items, nil
		case ReplyError:
			return nil, &ServerError{Line: string(rep.Text())}
		case ReplyLine:
			return nil, fmt.Errorf("protocol: unexpected retrieval line %q", rep.Text())
		}
		item := ValueItem{Key: string(rep.Key), Flags: rep.Flags, CAS: rep.CAS}
		block := make([]byte, rep.Bytes+2)
		if _, err := io.ReadFull(r, block); err != nil {
			return nil, err
		}
		if !bytes.HasSuffix(block, crlf) {
			return nil, errors.New("protocol: bad data chunk terminator")
		}
		item.Value = block[:rep.Bytes]
		items = append(items, item)
	}
}

// replyStream is a reply byte stream with a count of what was read off it.
type replyStream struct {
	src *bytes.Reader
	r   *bufio.Reader
}

func newReplyStream(data []byte) replyStream {
	src := bytes.NewReader(data)
	return replyStream{src: src, r: bufio.NewReaderSize(src, 512)}
}

func (s replyStream) consumed() int { return int(s.src.Size()) - s.src.Len() - s.r.Buffered() }

// sameError holds two errors to the same class and text; a *ServerError
// must stay one, since the client's connection-health rule keys off it.
func sameError(a, b error) bool {
	var sa, sb *ServerError
	if errors.As(a, &sa) != errors.As(b, &sb) {
		return false
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// wantFor derives the keys a caller might have asked for from the keys a
// reply carries: none, exactly those, those among misses, or those in
// the wrong order.
func wantFor(mode byte, keys []string) []string {
	switch mode % 4 {
	case 1:
		return keys
	case 2:
		var out []string
		for i, k := range keys {
			out = append(out, fmt.Sprintf("miss-%d", i), k)
		}
		return append(out, "miss-last")
	case 3:
		out := make([]string, len(keys))
		for i, k := range keys {
			out[len(keys)-1-i] = k
		}
		return out
	}
	return nil
}

// FuzzScanReply holds the two rewritten reply paths to their plain
// references on arbitrary bytes. Line by line, ScanReply must classify
// and cut exactly as the field splitter and number parser do. Reply by
// reply, the known-keys RetrievalReader — whatever it was told to expect
// — and the ReadRetrieval wrapper must return the same items, the same
// error and leave the stream at the same byte as the reference reader;
// matched keys must be the caller's strings and values must have no
// spare capacity to grow into a neighbour.
func FuzzScanReply(f *testing.F) {
	seeds := []string{
		"VALUE k 0 5\r\nhello\r\nEND\r\n",
		"VALUE a 1 1\r\nx\r\nVALUE b 2 2 99\r\nyz\r\nEND\r\nEND\r\n",
		"VALUE a 0 0\r\n\r\nVALUE b 0 3\r\nabc\r\nEND\r\nSERVER_ERROR busy\r\nVALUE c 0 1\r\nc\r\nEND\r\n",
		"VALUE k 0 5\r\nhel",                      // truncated block
		"VALUE k 0 5\r\nhelloXYEND\r\n",           // wrong terminator
		"VALUE k 0 5\r\nhello\rEND\r\n",           // half a terminator
		"VALUE k 0 1048577\r\nx\r\nEND\r\n",       // oversize length
		"VALUE k 0 99999999999999999999\r\n",      // length overflow
		"VALUE k 4294967296 1\r\nx\r\nEND\r\n",    // flags overflow
		"VALUE k 0 1 18446744073709551616\r\nx\r", // cas overflow
		"VALUE k 0 1 2 3\r\nx\r\nEND\r\n",         // a field too many
		"VALUE k 0\r\nEND\r\n",                    // a field too few
		"VALUE  k\t0 \v1  \r\r\nx\r\nEND\r\n",     // every kind of whitespace
		"VALUE \r\n", "VALUE\r\n", "VALUE k 0 1\n", "VALUEk 0 1\r\n",
		"VALUE k 0 -1\r\n", "VALUE k +0 1\r\nx\r\nEND\r\n",
		"END\r\n", "END \r\n", "END", "ERROR\r\n", "CLIENT_ERROR bad\r\n", "SERVER_ERRORx\r\n",
		"STORED\r\n", "\r\n", "\n", "",
		"VALUE " + strings.Repeat("k", 600) + " 0 1\r\nx\r\nEND\r\n", // a line longer than the reader
	}
	for i, s := range seeds {
		f.Add([]byte(s), byte(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, mode byte) {
		got, want := newReplyStream(data), newReplyStream(data)
		for {
			g, gerr := ScanReply(got.r)
			w, werr := refScanReply(want.r)
			if gerr != werr {
				t.Fatalf("ScanReply error %v, reference %v", gerr, werr)
			}
			if gerr != nil {
				break
			}
			if g.Kind != w.Kind || !bytes.Equal(g.Line, w.Line) || !bytes.Equal(g.Key, w.Key) ||
				g.Flags != w.Flags || g.Bytes != w.Bytes || g.CAS != w.CAS {
				t.Fatalf("line %q scanned as %+v, reference %+v", w.Line, g, w)
			}
		}

		ref, known, plain := newReplyStream(data), newReplyStream(data), newReplyStream(data)
		var rr RetrievalReader
		for reply := 0; reply < 64; reply++ {
			wantItems, wantErr := refReadRetrieval(ref.r)

			var asked []string
			for _, it := range wantItems {
				asked = append(asked, it.Key)
			}
			asked = wantFor(mode, asked)
			rr.Want = asked
			var items []ValueItem
			err := rr.Read(known.r, func(it ValueItem) error {
				items = append(items, it)
				return nil
			})
			if !sameError(err, wantErr) || known.consumed() != ref.consumed() {
				t.Fatalf("reply %d: RetrievalReader returned %v at byte %d, reference %v at byte %d",
					reply, err, known.consumed(), wantErr, ref.consumed())
			}
			if err == nil {
				sameItems(t, items, wantItems)
				for i, it := range items {
					if cap(it.Value) != len(it.Value) {
						t.Fatalf("item %d: value of %d bytes has capacity %d", i, len(it.Value), cap(it.Value))
					}
					if mode%4 == 1 || mode%4 == 2 { // asked for in order: the key is the caller's own string
						if !sameString(it.Key, asked) {
							t.Fatalf("item %d: key %q was copied, not taken from the wanted keys", i, it.Key)
						}
					}
				}
			}

			items, err = ReadRetrieval(plain.r)
			if !sameError(err, wantErr) || plain.consumed() != ref.consumed() {
				t.Fatalf("reply %d: ReadRetrieval returned %v at byte %d, reference %v at byte %d",
					reply, err, plain.consumed(), wantErr, ref.consumed())
			}
			if err != nil {
				if items != nil {
					t.Fatalf("ReadRetrieval returned items with error %v", err)
				}
				var se *ServerError
				if !errors.As(err, &se) {
					return // the stream is broken; an error reply alone leaves it at the next reply
				}
				continue
			}
			sameItems(t, items, wantItems)
		}
	})
}

func sameItems(t *testing.T, got, want []ValueItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d items, reference %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || !bytes.Equal(g.Value, w.Value) || g.Flags != w.Flags || g.CAS != w.CAS {
			t.Fatalf("item %d = %+v, reference %+v", i, g, w)
		}
	}
}

// sameString reports whether s is one of strs itself — same bytes in
// memory — rather than an equal copy.
func sameString(s string, strs []string) bool {
	for _, c := range strs {
		if len(c) == len(s) && unsafe.StringData(c) == unsafe.StringData(s) {
			return true
		}
	}
	return false
}

// FuzzReadStats: stats rows the Writer puts on the wire read back equal
// through ReadStats (a repeated name keeps its last value), and no input
// makes ReadStats panic. rows holds one "name value" pair per line,
// cut at the first space; a pair the Writer cannot carry (an empty name,
// a CR anywhere) is left out.
func FuzzReadStats(f *testing.F) {
	f.Add("get_misses 12\nextstore_disk_hits 3\nversion 1.6 memqlat", []byte("STAT a 1\r\nEND\r\n"))
	f.Add("a 1\na 2\nempty \n x", []byte("STAT a\r\nSERVER_ERROR busy\r\n"))
	f.Add("", []byte("VALUE k 0 1\r\nv\r\nEND\r\n"))
	f.Fuzz(func(t *testing.T, rows string, raw []byte) {
		_, _ = ReadStats(bufio.NewReader(bytes.NewReader(raw)))

		var wire bytes.Buffer
		w := NewWriter(&wire)
		want := map[string]string{}
		for _, line := range strings.Split(rows, "\n") {
			name, value, _ := strings.Cut(line, " ")
			if name == "" || strings.Contains(line, "\r") {
				continue
			}
			if err := w.Stat(name, value); err != nil {
				t.Fatal(err)
			}
			want[name] = value
		}
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadStats(bufio.NewReaderSize(&wire, len(rows)+64))
		if err != nil {
			t.Fatalf("ReadStats(%q): %v", wire.String(), err)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("wrote %q, read back %q", want, got)
		}
	})
}
