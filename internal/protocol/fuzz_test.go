package protocol_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"memqlat/internal/protocol"
)

// framed is one step of a framer's output: a command (with its captured
// frame) or a recoverable error.
type framed struct {
	cmd   ownedCommand
	frame string
	err   string
}

// drain pulls results out of next until the input runs dry (ErrIncomplete
// for the stream framer, EOF for the blocking one) or the peer quits.
func drain(out []framed, next func() (*protocol.Command, error), frame func() []byte) (_ []framed, quit bool) {
	for len(out) < 4096 {
		cmd, err := next()
		switch {
		case err == nil:
			out = append(out, framed{cmd: snapshot(cmd), frame: string(frame())})
		case protocol.IsRecoverable(err):
			out = append(out, framed{err: err.Error()})
		default:
			return out, errors.Is(err, protocol.ErrQuit)
		}
	}
	return out, true
}

// fuzzKeys cuts data into legal keys (no whitespace, at most 250 bytes).
func fuzzKeys(data []byte) []string {
	var keys []string
	for _, f := range bytes.Fields(data) {
		keys = append(keys, string(f[:min(len(f), 250)]))
	}
	if len(keys) == 0 {
		keys = []string{"k"}
	}
	return keys
}

// FuzzParseCommand checks the two properties the wire format rests on.
//
// Chunk-split invariance: the same request bytes fed to the framer
// whole, split at two fuzz-chosen offsets, and read by the blocking
// Parser one byte at a time and in half-size reads (so its buffer starts
// small and grows each time a read fills it) yield the same commands,
// the same recoverable errors and the same captured frames. The seed corpus
// covers truncated data blocks, oversized declared lengths, oversized
// lines, bad terminators and junk.
//
// Encode→frame round trip: the output of every Append encoder, given
// keys, a value and numbers derived from the fuzz input, parses back to
// exactly those fields — what the client writes is what the server reads.
func FuzzParseCommand(f *testing.F) {
	seeds := []string{
		"get k\r\n",
		"gets a b c\r\n",
		"set k 0 0 5\r\nhello\r\n",
		"set k 0 0 5\r\nhel",         // truncated data block
		"set k 0 0 1048577\r\nx\r\n", // oversized declared length
		"set k 0 0 -1\r\nx\r\n",      // negative length
		"set k 1 2\r\n",              // missing length field
		"cas k 1 2 3 99\r\nabc\r\n",  // wrong data length for cas
		"cas k 0 0 3 nan\r\nabc\r\n", // bad cas token
		"incr k 10\r\ndecr k 2 noreply\r\n",
		"touch k 30\r\ndelete k\r\n",
		"gat 30 a b\r\ngats -1 c\r\n",
		"stats items\r\nversion\r\nverbosity 1\r\nflush_all 10 noreply\r\n",
		"set k 0 0 2\r\nab\r\nget k\r\n", // storage then retrieval
		"set k 0 0 2\r\nabXYget k\r\n",   // bad terminator, resync
		"get k\nset k 0 0 1\nx\r\n",      // bare-LF lines: frames are rewritten
		"get k\r\r\n",
		"mq_trace 7 9\r\nget k\r\n",
		"bogus cmd\r\n",
		"\r\n",
		" \t \r\n",
		"get a\r\nquit\r\nget b\r\n",
		"get " + strings.Repeat("k", 300) + "\r\n",
		strings.Repeat("x", protocol.ConnBufferBytes+100) + "\r\nget k\r\n", // oversized line, then recovery
		"get k1 k2\r\nset k1 0 0 0\r\n\r\n",
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint16(i), uint16(3*i+1))
	}
	f.Fuzz(func(t *testing.T, data []byte, a, b uint16) {
		whole := protocol.NewStreamParser(0) // the Parser's limit, ConnBufferBytes
		whole.CaptureFrames(true)
		whole.Feed(data)
		want, _ := drain(nil, whole.Next, whole.Frame)
		for _, r := range want {
			if len(r.cmd.value) > protocol.MaxValueBytes {
				t.Fatalf("value of %d bytes exceeds MaxValueBytes", len(r.cmd.value))
			}
		}

		cut1, cut2 := int(a)%(len(data)+1), int(b)%(len(data)+1)
		if cut1 > cut2 {
			cut1, cut2 = cut2, cut1
		}
		split := protocol.NewStreamParser(0)
		split.CaptureFrames(true)
		var got []framed
		for _, chunk := range [][]byte{data[:cut1], data[cut1:cut2], data[cut2:]} {
			split.Feed(chunk)
			var quit bool
			if got, quit = drain(got, split.Next, split.Frame); quit {
				break
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d,%d diverged from the whole feed:\n got %+v\nwant %+v", cut1, cut2, got, want)
		}

		for name, r := range map[string]io.Reader{
			"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
			"half":     iotest.HalfReader(bytes.NewReader(data)),
		} {
			p := protocol.NewParser(r)
			p.CaptureFrames(true)
			if got, _ = drain(nil, p.Next, p.Frame); !reflect.DeepEqual(got, want) {
				t.Fatalf("Parser over a %s reader diverged from the whole feed:\n got %+v\nwant %+v", name, got, want)
			}
		}

		roundTrip(t, fuzzKeys(data), data[:min(len(data), 2048)], a, b)
	})
}

// roundTrip encodes one command per encoder and requires the framer to
// read back the fields that went in.
func roundTrip(t *testing.T, keys []string, value []byte, a, b uint16) {
	key := keys[0]
	flags, exptime := uint32(a)<<16|uint32(b), int64(int16(a))*int64(b)
	big := uint64(a)<<48 | uint64(b)<<20 | uint64(a^b)
	var wire []byte
	var want []ownedCommand
	add := func(c ownedCommand) { want = append(want, c) }

	for _, op := range []protocol.Op{protocol.OpGet, protocol.OpGets, protocol.OpGat, protocol.OpGats} {
		c := ownedCommand{op: op}
		if op == protocol.OpGat || op == protocol.OpGats {
			c.exptime = exptime
		}
		for rest := keys; len(rest) > 0; {
			start := len(wire)
			var n int
			wire, n = protocol.AppendRetrieval(wire, op, exptime, rest)
			if n < 1 || (n > 1 && len(wire)-start > protocol.MaxLineBytes) {
				t.Fatalf("%v line took %d keys in %d bytes", op, n, len(wire)-start)
			}
			c.keys = rest[:n]
			add(c)
			rest = rest[n:]
		}
	}
	for _, op := range []protocol.Op{protocol.OpSet, protocol.OpAdd, protocol.OpReplace,
		protocol.OpAppend, protocol.OpPrepend, protocol.OpCas} {
		wire = protocol.AppendStorage(wire, op, key, flags, exptime, value, big)
		c := ownedCommand{op: op, key: key, flags: flags, exptime: exptime, value: string(value)}
		if op == protocol.OpCas {
			c.cas = big
		}
		add(c)
	}
	for _, op := range []protocol.Op{protocol.OpIncr, protocol.OpDecr} {
		wire = protocol.AppendIncrDecr(wire, op, key, big)
		add(ownedCommand{op: op, key: key, delta: big})
	}
	wire = protocol.AppendTrace(wire, big|1, uint64(b))
	add(ownedCommand{op: protocol.OpTrace, cas: big | 1, delta: uint64(b)})
	for _, op := range []protocol.Op{protocol.OpStats, protocol.OpFlushAll, protocol.OpVersion} {
		wire = protocol.AppendBare(wire, op)
		add(ownedCommand{op: op})
	}
	wire = protocol.AppendBare(wire, protocol.OpQuit)

	p := protocol.NewParser(bytes.NewReader(wire))
	p.CaptureFrames(true)
	for i, w := range want {
		cmd, err := p.Next()
		if err != nil {
			t.Fatalf("encoded command %d (%v) does not parse: %v", i, w.op, err)
		}
		if got := snapshot(cmd); !reflect.DeepEqual(got, w) {
			t.Fatalf("encoded command %d read back as\n %+v\nwant\n %+v", i, got, w)
		}
	}
	if _, err := p.Next(); !errors.Is(err, protocol.ErrQuit) {
		t.Fatalf("encoded quit read back as %v", err)
	}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("encoders wrote trailing bytes: %v", err)
	}
}

// bufioReplies is the reply writer as it was built on a bufio.Writer of
// ConnBufferBytes: the reference FuzzWriter holds the Writer to.
type bufioReplies struct{ *bufio.Writer }

func (r bufioReplies) line(s string) { _, _ = r.WriteString(s + "\r\n") }

func (r bufioReplies) value(key []byte, flags uint32, cas uint64, value []byte, withCAS bool) {
	if withCAS {
		_, _ = fmt.Fprintf(r, "VALUE %s %d %d %d\r\n", key, flags, len(value), cas)
	} else {
		_, _ = fmt.Fprintf(r, "VALUE %s %d %d\r\n", key, flags, len(value))
	}
	_, _ = r.Write(value)
	r.line("")
}

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// FuzzWriter checks the reply writer against the bufio-backed writer it
// replaced: any sequence of Line, ValueBytes, Number, Stat and Flush —
// values and stat lines on both sides of ConnBufferBytes — puts the same
// bytes on the wire, written straight to a connection or through a
// bufio.Writer. After every Flush the destination holds every byte
// written so far, the Flush cost at most one Write, and the Writer never
// holds more than ConnBufferBytes.
func FuzzWriter(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{1 + 5*4, 1 + 5*5, 4, 1 + 5*6, 1 + 5*3, 0, 4})
	f.Add([]byte{1 + 5*7, 3 + 5*7, 2, 1 + 5*12, 1 + 5*13, 1 + 5*14})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sizes := []int{0, 1, 100, protocol.ConnBufferBytes - 80, protocol.ConnBufferBytes - 1,
			protocol.ConnBufferBytes, protocol.ConnBufferBytes + 1, 2*protocol.ConnBufferBytes + 7}
		var ref, viaBufio bytes.Buffer
		var direct countingWriter
		rw := bufioReplies{bufio.NewWriterSize(&ref, protocol.ConnBufferBytes)}
		ws := []*protocol.Writer{protocol.NewWriter(&direct), protocol.NewWriter(bufio.NewWriter(&viaBufio))}
		check := func(step int) {
			for i, w := range ws {
				if w.Buffered() > protocol.ConnBufferBytes {
					t.Fatalf("step %d: writer %d holds %d bytes", step, i, w.Buffered())
				}
			}
		}
		flush := func(step int) {
			if err := rw.Flush(); err != nil {
				t.Fatal(err)
			}
			before := direct.writes
			for _, w := range ws {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if n := direct.writes - before; n > 1 {
				t.Fatalf("step %d: Flush took %d writes", step, n)
			}
			for name, got := range map[string][]byte{"direct": direct.Bytes(), "bufio": viaBufio.Bytes()} {
				if !bytes.Equal(got, ref.Bytes()) {
					t.Fatalf("step %d: %s writer put %d bytes on the wire, the bufio reference %d:\n got %.200q\nwant %.200q",
						step, name, len(got), ref.Len(), got, ref.Bytes())
				}
			}
		}
		for step, op := range ops {
			p := int(op / 5)
			size := sizes[p%len(sizes)]
			key := []byte("k" + strconv.Itoa(p))
			switch op % 5 {
			case 0:
				line := []string{protocol.RespStored, protocol.RespEnd, protocol.RespNotFound, ""}[p%4]
				rw.line(line)
				for _, w := range ws {
					if err := w.Line(line); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				value := bytes.Repeat([]byte{'a' + byte(p%26)}, size)
				flags, cas, withCAS := uint32(p)*7919, uint64(p)<<40|uint64(size), p%2 == 1
				rw.value(key, flags, cas, value, withCAS)
				for _, w := range ws {
					if err := w.ValueBytes(key, flags, cas, value, withCAS); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				n := uint64(p) * 0x3fffffffffffffff
				rw.line(strconv.FormatUint(n, 10))
				for _, w := range ws {
					if err := w.Number(n); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				value := strings.Repeat("s", size)
				rw.line("STAT " + string(key) + " " + value)
				for _, w := range ws {
					if err := w.Stat(string(key), value); err != nil {
						t.Fatal(err)
					}
				}
			case 4:
				flush(step)
			}
			check(step)
		}
		flush(len(ops))
	})
}
