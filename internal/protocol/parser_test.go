package protocol

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// TestParserReusesBuffers checks the aliasing contract: a pipelined
// stream parsed by one Parser yields correct commands while the
// returned Command struct and its buffers are recycled between calls.
func TestParserReusesBuffers(t *testing.T) {
	stream := "set k1 7 0 3\r\nabc\r\n" +
		"get k1 k2\r\n" +
		"set k2 0 0 5\r\nhello\r\n" +
		"incr n 42 noreply\r\n" +
		"gat 30 k1\r\n"
	p := NewParser(bufio.NewReader(strings.NewReader(stream)))

	cmd, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpSet || string(cmd.KeyB) != "k1" || cmd.Flags != 7 || string(cmd.Value) != "abc" {
		t.Errorf("set parsed as %+v", cmd)
	}

	prev := cmd
	cmd, err = p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cmd != prev {
		t.Error("Parser.Next did not reuse the Command struct")
	}
	if cmd.Op != OpGet || len(cmd.KeyList) != 2 ||
		string(cmd.KeyList[0]) != "k1" || string(cmd.KeyList[1]) != "k2" {
		t.Errorf("get parsed as %+v", cmd)
	}
	if cmd.KeyB != nil || cmd.Value != nil {
		t.Errorf("stale fields not cleared: %+v", cmd)
	}

	cmd, err = p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpSet || string(cmd.KeyB) != "k2" || string(cmd.Value) != "hello" {
		t.Errorf("second set parsed as %+v", cmd)
	}

	cmd, err = p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpIncr || string(cmd.KeyB) != "n" || cmd.Delta != 42 || !cmd.Noreply {
		t.Errorf("incr parsed as %+v", cmd)
	}

	cmd, err = p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpGat || cmd.Exptime != 30 || len(cmd.KeyList) != 1 || string(cmd.KeyList[0]) != "k1" {
		t.Errorf("gat parsed as %+v", cmd)
	}
}

// TestParserZeroAllocSteadyState pins the tentpole guarantee: once
// warm, parsing pipelined gets and sets allocates nothing.
func TestParserZeroAllocSteadyState(t *testing.T) {
	frame := []byte("get kxyz\r\nset kxyz 0 0 5\r\nhello\r\n")
	var stream bytes.Buffer
	reader := bytes.NewReader(nil)
	br := bufio.NewReader(reader)
	p := NewParser(br)
	// Warm the parser's scratch buffers once.
	stream.Write(frame)
	reader.Reset(stream.Bytes())
	br.Reset(reader)
	for i := 0; i < 2; i++ {
		if _, err := p.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		reader.Reset(stream.Bytes())
		br.Reset(reader)
		for i := 0; i < 2; i++ {
			if _, err := p.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state parse allocates %v times per frame, want 0", allocs)
	}
}

// TestParseNumericBounds covers the hand-rolled numeric parsers against
// the strconv behavior the old parser relied on.
func TestParseNumericBounds(t *testing.T) {
	uintCases := []struct {
		in   string
		bits int
		want uint64
		ok   bool
	}{
		{"0", 64, 0, true},
		{"42", 64, 42, true},
		{"18446744073709551615", 64, 1<<64 - 1, true},
		{"18446744073709551616", 64, 0, false}, // overflow
		{"4294967295", 32, 1<<32 - 1, true},
		{"4294967296", 32, 0, false},
		{"007", 64, 7, true},
		{"", 64, 0, false},
		{"-1", 64, 0, false}, // sign not permitted
		{"+1", 64, 0, false},
		{"1a", 64, 0, false},
		{"1_0", 64, 0, false},
	}
	for _, tc := range uintCases {
		got, ok := parseUintB([]byte(tc.in), tc.bits)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("parseUintB(%q, %d) = (%d, %v), want (%d, %v)", tc.in, tc.bits, got, ok, tc.want, tc.ok)
		}
	}
	intCases := []struct {
		in   string
		bits int
		want int64
		ok   bool
	}{
		{"0", 64, 0, true},
		{"-1", 64, -1, true},
		{"+5", 64, 5, true},
		{"9223372036854775807", 64, 1<<63 - 1, true},
		{"9223372036854775808", 64, 0, false},
		{"-9223372036854775808", 64, -1 << 63, true},
		{"-9223372036854775809", 64, 0, false},
		{"-", 64, 0, false},
		{"", 64, 0, false},
	}
	for _, tc := range intCases {
		got, ok := parseIntB([]byte(tc.in), tc.bits)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("parseIntB(%q, %d) = (%d, %v), want (%d, %v)", tc.in, tc.bits, got, ok, tc.want, tc.ok)
		}
	}
}

// TestWriterValueBytesMatchesValue checks the zero-alloc writer emits
// byte-identical output to the fmt-based Value path.
func TestWriterValueBytesMatchesValue(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 100)
	for _, withCAS := range []bool{false, true} {
		var a, b bytes.Buffer
		wa := NewWriter(bufio.NewWriter(&a))
		wb := NewWriter(bufio.NewWriter(&b))
		if err := wa.Value("key1", 7, 99, value, withCAS); err != nil {
			t.Fatal(err)
		}
		if err := wb.ValueBytes([]byte("key1"), 7, 99, value, withCAS); err != nil {
			t.Fatal(err)
		}
		if err := wa.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("withCAS=%v: Value wrote %q, ValueBytes wrote %q", withCAS, a.String(), b.String())
		}
	}
}

// TestWriterValueBytesFlushGuard fills the writer's buffer to just
// below the header guard and checks the padding goes out on its own and
// the block still comes out intact after it.
func TestWriterValueBytesFlushGuard(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out)
	pad := strings.Repeat("x", ConnBufferBytes-len("key")-63)
	if _, err := w.Write([]byte(pad)); err != nil {
		t.Fatal(err)
	}
	if err := w.ValueBytes([]byte("key"), 1, 2, []byte("abcde"), true); err != nil {
		t.Fatal(err)
	}
	if out.String() != pad {
		t.Errorf("before Flush the destination holds %d bytes, want the %d-byte padding", out.Len(), len(pad))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := pad + "VALUE key 1 5 2\r\nabcde\r\n"
	if out.String() != want {
		t.Errorf("output = %q, want %q", out.String(), want)
	}
}

// TestWriterNumberZeroAlloc pins Number's allocation-free guarantee.
func TestWriterNumberZeroAlloc(t *testing.T) {
	w := NewWriter(bufio.NewWriterSize(discardWriter{}, 4096))
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.Number(18446744073709551615); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Number allocates %v times per call, want 0", allocs)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestParseTrace(t *testing.T) {
	p := NewParser(bufio.NewReader(strings.NewReader(
		"mq_trace 7 9\r\nmq_trace 18446744073709551615 0\r\n")))
	cmd, err := p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpTrace || cmd.CAS != 7 || cmd.Delta != 9 {
		t.Fatalf("mq_trace parsed as %+v", cmd)
	}
	cmd, err = p.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.CAS != 1<<64-1 || cmd.Delta != 0 {
		t.Fatalf("max-id mq_trace parsed as %+v", cmd)
	}
	for _, bad := range []string{
		"mq_trace\r\n",
		"mq_trace 1\r\n",
		"mq_trace 1 2 3\r\n",
		"mq_trace 0 2\r\n", // zero trace id means "untraced": rejected
		"mq_trace x 2\r\n",
		"mq_trace 1 -2\r\n",
	} {
		p := NewParser(bufio.NewReader(strings.NewReader(bad)))
		if _, err := p.Next(); err == nil {
			t.Errorf("accepted %q", bad)
		} else if _, ok := err.(*ClientError); !ok {
			t.Errorf("%q yielded non-client error %v", bad, err)
		}
	}
}
