package protocol_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
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
// whole, split at two fuzz-chosen offsets, and one byte at a time
// through the blocking Parser yield the same commands, the same
// recoverable errors and the same captured frames. The seed corpus
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
		strings.Repeat("x", 9000) + "\r\nget k\r\n", // oversized line, then recovery
		"get k1 k2\r\nset k1 0 0 0\r\n\r\n",
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint16(i), uint16(3*i+1))
	}
	f.Fuzz(func(t *testing.T, data []byte, a, b uint16) {
		const maxLine = 4096

		whole := protocol.NewStreamParser(maxLine)
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
		split := protocol.NewStreamParser(maxLine)
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

		p := protocol.NewParser(bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), maxLine))
		p.CaptureFrames(true)
		if got, _ = drain(nil, p.Next, p.Frame); !reflect.DeepEqual(got, want) {
			t.Fatalf("Parser over a one-byte reader diverged from the whole feed:\n got %+v\nwant %+v", got, want)
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

	p := protocol.NewParser(bufio.NewReaderSize(bytes.NewReader(wire), protocol.ConnBufferBytes))
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
