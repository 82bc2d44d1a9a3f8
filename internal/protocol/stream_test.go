package protocol_test

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"memqlat/internal/protocol"
)

// ownedCommand is a self-owned snapshot of a parsed Command, safe to
// retain across parser calls.
type ownedCommand struct {
	op      protocol.Op
	key     string
	keys    []string
	flags   uint32
	exptime int64
	value   string
	cas     uint64
	delta   uint64
	noreply bool
	level   int
}

func snapshot(c *protocol.Command) ownedCommand {
	o := ownedCommand{
		op: c.Op, key: string(c.KeyB), flags: c.Flags, exptime: c.Exptime,
		value: string(c.Value), cas: c.CAS, delta: c.Delta,
		noreply: c.Noreply, level: c.Level,
	}
	for _, k := range c.KeyList {
		o.keys = append(o.keys, string(k))
	}
	return o
}

// streamSession is one scripted wire stream plus the results every
// parser must agree on.
var streamSession = strings.Join([]string{
	"get one\r\n",
	"gets a b c\r\n",
	"set k1 42 0 5\r\nhello\r\n",
	"add k2 0 30 3\r\nabc\r\n",
	"replace k1 0 0 2\r\nxy\r\n",
	"append k1 0 0 1\r\nz\r\n",
	"prepend k1 0 0 1\r\nw\r\n",
	"cas k1 7 0 4 99\r\nwxyz\r\n",
	"set nr 0 0 2 noreply\r\nok\r\n",
	"delete k2\r\n",
	"delete k2 noreply\r\n",
	"incr ctr 10\r\n",
	"decr ctr 2 noreply\r\n",
	"touch k1 300\r\n",
	"gat 60 a b\r\n",
	"gats -1 c\r\n",
	"stats items\r\n",
	"stats\r\n",
	"flush_all 10 noreply\r\n",
	"version\r\n",
	"verbosity 1 noreply\r\n",
	"mq_trace 12345 678\r\n",
	"set big 1 2 10\r\n0123456789\r\n",
}, "")

// parseAll drains a parser-producing function into owned snapshots,
// stopping at the first non-recoverable error.
func parseAllBlocking(t *testing.T, data string) []ownedCommand {
	t.Helper()
	p := protocol.NewParser(bufio.NewReader(strings.NewReader(data)))
	var out []ownedCommand
	for {
		cmd, err := p.Next()
		if err != nil {
			if protocol.IsRecoverable(err) {
				continue
			}
			return out
		}
		out = append(out, snapshot(cmd))
	}
}

// TestStreamParserByteAtATime feeds the full command-type session one
// byte at a time: every frame is split at every possible boundary —
// inside the command line, between line and data block, inside the data
// block, inside the CRLF terminator — and the parsed command sequence
// must be identical to the blocking parser reading the same stream.
func TestStreamParserByteAtATime(t *testing.T) {
	want := parseAllBlocking(t, streamSession)
	sp := protocol.NewStreamParser(0)
	var got []ownedCommand
	for i := 0; i < len(streamSession); i++ {
		sp.Feed([]byte{streamSession[i]})
		for {
			cmd, err := sp.Next()
			if errors.Is(err, protocol.ErrIncomplete) {
				break
			}
			if err != nil {
				t.Fatalf("byte %d: unexpected error %v", i, err)
			}
			got = append(got, snapshot(cmd))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d commands, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if a.op != b.op || a.key != b.key || a.flags != b.flags ||
			a.exptime != b.exptime || a.value != b.value || a.cas != b.cas ||
			a.delta != b.delta || a.noreply != b.noreply || a.level != b.level {
			t.Errorf("command %d diverged:\nstream   %+v\nblocking %+v", i, a, b)
		}
		if len(a.keys) != len(b.keys) {
			t.Errorf("command %d: %d keys vs %d", i, len(a.keys), len(b.keys))
			continue
		}
		for j := range a.keys {
			if a.keys[j] != b.keys[j] {
				t.Errorf("command %d key %d: %q vs %q", i, j, a.keys[j], b.keys[j])
			}
		}
	}
}

// TestStreamParserChunkSizes re-parses the session at several chunk
// granularities (2, 3, 7, 1024 bytes) — frame splits land on different
// boundaries each time, the result must not change.
func TestStreamParserChunkSizes(t *testing.T) {
	want := parseAllBlocking(t, streamSession)
	for _, chunk := range []int{2, 3, 7, 1024} {
		sp := protocol.NewStreamParser(0)
		var got []ownedCommand
		for i := 0; i < len(streamSession); i += chunk {
			end := i + chunk
			if end > len(streamSession) {
				end = len(streamSession)
			}
			sp.Feed([]byte(streamSession[i:end]))
			for {
				cmd, err := sp.Next()
				if errors.Is(err, protocol.ErrIncomplete) {
					break
				}
				if err != nil {
					t.Fatalf("chunk=%d: unexpected error %v", chunk, err)
				}
				got = append(got, snapshot(cmd))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("chunk=%d: parsed %d commands, want %d", chunk, len(got), len(want))
		}
	}
}

// TestStreamParserRecoverableErrors checks that malformed input leaves
// the stream resynchronized: the bad frame is consumed, later commands
// still parse.
func TestStreamParserRecoverableErrors(t *testing.T) {
	sp := protocol.NewStreamParser(64)
	feedAll := func(s string) []error {
		var errs []error
		sp.Feed([]byte(s))
		for {
			_, err := sp.Next()
			if errors.Is(err, protocol.ErrIncomplete) {
				return errs
			}
			errs = append(errs, err)
		}
	}

	// Unknown command, then a good one.
	errs := feedAll("bogus x\r\nget k\r\n")
	if len(errs) != 2 || !protocol.IsRecoverable(errs[0]) || errs[1] != nil {
		t.Fatalf("unknown-command errors = %v", errs)
	}
	// Bad data terminator: the declared block is consumed, stream resyncs.
	errs = feedAll("set k 0 0 2\r\nabXYget k\r\n")
	if len(errs) < 1 || !protocol.IsRecoverable(errs[0]) {
		t.Fatalf("bad-terminator errors = %v", errs)
	}
	// Oversized line split across feeds: errors once, then recovers.
	sp2 := protocol.NewStreamParser(16)
	long := strings.Repeat("x", 40)
	sp2.Feed([]byte(long[:20]))
	if _, err := sp2.Next(); !errors.Is(err, protocol.ErrIncomplete) {
		t.Fatalf("mid-oversized-line error = %v, want ErrIncomplete", err)
	}
	sp2.Feed([]byte(long[20:] + "\r\nget k\r\n"))
	_, err := sp2.Next()
	var ce *protocol.ClientError
	if !errors.As(err, &ce) || ce.Msg != "line too long" {
		t.Fatalf("oversized line error = %v", err)
	}
	cmd, err := sp2.Next()
	if err != nil || cmd.Op != protocol.OpGet {
		t.Fatalf("post-resync parse = %v, %v", cmd, err)
	}
	// Quit surfaces as ErrQuit.
	sp3 := protocol.NewStreamParser(0)
	sp3.Feed([]byte("quit\r\n"))
	if _, err := sp3.Next(); !errors.Is(err, protocol.ErrQuit) {
		t.Fatalf("quit error = %v", err)
	}
}

// TestStreamParserLargeValueSplit stores a value crossing the shrink
// threshold, split into uneven chunks, and checks the buffer is
// released afterwards (no capacity pinned by an idle connection).
func TestStreamParserLargeValueSplit(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 100<<10)
	frame := append([]byte("set big 0 0 102400\r\n"), val...)
	frame = append(frame, '\r', '\n')
	sp := protocol.NewStreamParser(0)
	for len(frame) > 0 {
		n := 30 << 10
		if n > len(frame) {
			n = len(frame)
		}
		sp.Feed(frame[:n])
		frame = frame[n:]
		cmd, err := sp.Next()
		if errors.Is(err, protocol.ErrIncomplete) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if cmd.Op != protocol.OpSet || len(cmd.Value) != 100<<10 {
			t.Fatalf("parsed %v with %d value bytes", cmd.Op, len(cmd.Value))
		}
	}
	if sp.Buffered() != 0 {
		t.Fatalf("buffered = %d after full drain", sp.Buffered())
	}
}
