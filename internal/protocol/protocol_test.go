package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func reader(s string) *bufio.Reader {
	return bufio.NewReader(strings.NewReader(s))
}

// parse frames the first command on r with a fresh blocking Parser.
func parse(r *bufio.Reader) (*Command, error) { return NewParser(r).Next() }

func TestParseGet(t *testing.T) {
	cmd, err := parse(reader("get foo\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpGet || len(cmd.KeyList) != 1 || string(cmd.KeyList[0]) != "foo" {
		t.Errorf("cmd = %+v", cmd)
	}
}

func TestParseMultiGet(t *testing.T) {
	cmd, err := parse(reader("gets a b c\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpGets || len(cmd.KeyList) != 3 || string(cmd.KeyList[2]) != "c" {
		t.Errorf("cmd = %+v", cmd)
	}
}

func TestParseGetNoKeys(t *testing.T) {
	_, err := parse(reader("get\r\n"))
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Errorf("err = %v", err)
	}
}

func TestParseSet(t *testing.T) {
	cmd, err := parse(reader("set foo 42 100 5\r\nhello\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpSet || string(cmd.KeyB) != "foo" || cmd.Flags != 42 ||
		cmd.Exptime != 100 || string(cmd.Value) != "hello" || cmd.Noreply {
		t.Errorf("cmd = %+v", cmd)
	}
}

func TestParseSetNoreply(t *testing.T) {
	cmd, err := parse(reader("set foo 0 0 2 noreply\r\nhi\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !cmd.Noreply {
		t.Error("noreply not parsed")
	}
}

func TestParseSetBinaryValue(t *testing.T) {
	// Values may contain \r\n bytes; only the length delimits them.
	raw := "set k 0 0 4\r\na\r\nb\r\n" // value is "a\r\nb"... wait, 4 bytes: 'a','\r','\n','b'
	cmd, err := parse(reader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmd.Value, []byte("a\r\nb")) {
		t.Errorf("value = %q", cmd.Value)
	}
}

func TestParseStorageVariants(t *testing.T) {
	tests := []struct {
		give string
		want Op
	}{
		{"add k 0 0 1\r\nx\r\n", OpAdd},
		{"replace k 0 0 1\r\nx\r\n", OpReplace},
		{"append k 0 0 1\r\nx\r\n", OpAppend},
		{"prepend k 0 0 1\r\nx\r\n", OpPrepend},
	}
	for _, tt := range tests {
		cmd, err := parse(reader(tt.give))
		if err != nil {
			t.Fatalf("%q: %v", tt.give, err)
		}
		if cmd.Op != tt.want {
			t.Errorf("%q: op = %v", tt.give, cmd.Op)
		}
	}
}

func TestParseCas(t *testing.T) {
	cmd, err := parse(reader("cas k 1 2 3 99\r\nabc\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpCas || cmd.CAS != 99 || string(cmd.Value) != "abc" {
		t.Errorf("cmd = %+v", cmd)
	}
	cmd, err = parse(reader("cas k 1 2 3 99 noreply\r\nabc\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !cmd.Noreply {
		t.Error("cas noreply not parsed")
	}
}

func TestParseStorageErrors(t *testing.T) {
	bad := []string{
		"set k 0 0\r\n",              // missing length
		"set k x 0 5\r\nhello\r\n",   // bad flags
		"set k 0 x 5\r\nhello\r\n",   // bad exptime
		"set k 0 0 x\r\nhello\r\n",   // bad length
		"set k 0 0 -1\r\nhello\r\n",  // negative length
		"set k 0 0 5 extra junk\r\n", // too many args
		"cas k 0 0 3 xx\r\nabc\r\n",  // bad cas token
		"set k 0 0 1048577\r\n",      // over MaxValueBytes
	}
	for _, give := range bad {
		_, err := parse(reader(give))
		var ce *ClientError
		if !errors.As(err, &ce) {
			t.Errorf("%q: err = %v, want ClientError", give, err)
		}
	}
}

func TestParseBadTerminator(t *testing.T) {
	_, err := parse(reader("set k 0 0 5\r\nhelloXX"))
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Errorf("err = %v", err)
	}
}

func TestParseDelete(t *testing.T) {
	cmd, err := parse(reader("delete k\r\n"))
	if err != nil || cmd.Op != OpDelete || string(cmd.KeyB) != "k" {
		t.Fatalf("cmd=%+v err=%v", cmd, err)
	}
	cmd, _ = parse(reader("delete k noreply\r\n"))
	if !cmd.Noreply {
		t.Error("delete noreply")
	}
	if _, err := parse(reader("delete\r\n")); err == nil {
		t.Error("delete without key accepted")
	}
	if _, err := parse(reader("delete a b\r\n")); err == nil {
		t.Error("delete extra arg accepted")
	}
}

func TestParseIncrDecr(t *testing.T) {
	cmd, err := parse(reader("incr n 5\r\n"))
	if err != nil || cmd.Op != OpIncr || cmd.Delta != 5 {
		t.Fatalf("cmd=%+v err=%v", cmd, err)
	}
	cmd, err = parse(reader("decr n 3 noreply\r\n"))
	if err != nil || cmd.Op != OpDecr || cmd.Delta != 3 || !cmd.Noreply {
		t.Fatalf("cmd=%+v err=%v", cmd, err)
	}
	if _, err := parse(reader("incr n abc\r\n")); err == nil {
		t.Error("non-numeric delta accepted")
	}
	if _, err := parse(reader("incr n\r\n")); err == nil {
		t.Error("missing delta accepted")
	}
}

func TestParseTouch(t *testing.T) {
	cmd, err := parse(reader("touch k 60\r\n"))
	if err != nil || cmd.Op != OpTouch || cmd.Exptime != 60 {
		t.Fatalf("cmd=%+v err=%v", cmd, err)
	}
	if _, err := parse(reader("touch k abc\r\n")); err == nil {
		t.Error("bad exptime accepted")
	}
}

func TestParseManagement(t *testing.T) {
	cmd, err := parse(reader("stats\r\n"))
	if err != nil || cmd.Op != OpStats {
		t.Fatalf("stats: %+v %v", cmd, err)
	}
	cmd, err = parse(reader("version\r\n"))
	if err != nil || cmd.Op != OpVersion {
		t.Fatalf("version: %+v %v", cmd, err)
	}
	cmd, err = parse(reader("flush_all\r\n"))
	if err != nil || cmd.Op != OpFlushAll {
		t.Fatalf("flush_all: %+v %v", cmd, err)
	}
	cmd, err = parse(reader("flush_all 10 noreply\r\n"))
	if err != nil || cmd.Exptime != 10 || !cmd.Noreply {
		t.Fatalf("flush_all args: %+v %v", cmd, err)
	}
	cmd, err = parse(reader("verbosity 2\r\n"))
	if err != nil || cmd.Op != OpVerbosity || cmd.Level != 2 {
		t.Fatalf("verbosity: %+v %v", cmd, err)
	}
	if _, err := parse(reader("verbosity abc\r\n")); err == nil {
		t.Error("bad verbosity accepted")
	}
}

func TestParseQuit(t *testing.T) {
	if _, err := parse(reader("quit\r\n")); !errors.Is(err, ErrQuit) {
		t.Errorf("err = %v", err)
	}
}

func TestParseUnknownCommand(t *testing.T) {
	_, err := parse(reader("bogus\r\n"))
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Errorf("err = %v", err)
	}
	if !IsRecoverable(err) {
		t.Error("client error not recoverable")
	}
}

func TestParseOversizedLine(t *testing.T) {
	long := "get " + strings.Repeat("k ", MaxLineBytes) + "\r\n"
	r := bufio.NewReaderSize(strings.NewReader(long+"get ok\r\n"), 4096)
	p := NewParser(r)
	_, err := p.Next()
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v", err)
	}
	// The stream recovers: the next command parses.
	cmd, err := p.Next()
	if err != nil || string(cmd.KeyList[0]) != "ok" {
		t.Errorf("recovery failed: %+v %v", cmd, err)
	}
}

func TestOpString(t *testing.T) {
	if OpGet.String() != "get" || OpCas.String() != "cas" {
		t.Error("op names wrong")
	}
	if Op(99).String() == "" {
		t.Error("unknown op empty")
	}
}

// Round trip: server writes a response, client parses it back.
func TestValueRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(bufio.NewWriter(&buf))
	if err := w.Value("k1", 7, 99, []byte("hello"), true); err != nil {
		t.Fatal(err)
	}
	if err := w.Value("k2", 0, 0, []byte("x\r\ny"), false); err != nil {
		t.Fatal(err)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	items, err := ReadRetrieval(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Key != "k1" || items[0].Flags != 7 || items[0].CAS != 99 ||
		string(items[0].Value) != "hello" {
		t.Errorf("item0 = %+v", items[0])
	}
	if string(items[1].Value) != "x\r\ny" || items[1].CAS != 0 {
		t.Errorf("item1 = %+v", items[1])
	}
}

func TestReadRetrievalErrors(t *testing.T) {
	if _, err := ReadRetrieval(reader("SERVER_ERROR out of memory\r\n")); err == nil {
		t.Error("server error not surfaced")
	}
	var se *ServerError
	_, err := ReadRetrieval(reader("CLIENT_ERROR bad\r\n"))
	if !errors.As(err, &se) {
		t.Errorf("err = %v", err)
	}
	if _, err := ReadRetrieval(reader("GARBAGE\r\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadRetrieval(reader("VALUE k x 5\r\nhello\r\nEND\r\n")); err == nil {
		t.Error("bad flags accepted")
	}
	if _, err := ReadRetrieval(reader("VALUE k 0 xx\r\n")); err == nil {
		t.Error("bad length accepted")
	}
}

func TestReadLineReply(t *testing.T) {
	got, err := ReadLineReply(reader("STORED\r\n"))
	if err != nil || got != RespStored {
		t.Fatalf("%q %v", got, err)
	}
	if _, err := ReadLineReply(reader("ERROR\r\n")); err == nil {
		t.Error("ERROR not surfaced")
	}
	var se *ServerError
	_, err = ReadLineReply(reader("SERVER_ERROR boom\r\n"))
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(bufio.NewWriter(&buf))
	_ = w.Stat("hits", "10")
	_ = w.Stat("misses", "2")
	_ = w.End()
	_ = w.Flush()
	m, err := ReadStats(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if m["hits"] != "10" || m["misses"] != "2" {
		t.Errorf("stats = %v", m)
	}
	if _, err := ReadStats(reader("JUNK\r\n")); err == nil {
		t.Error("junk stats accepted")
	}
	if _, err := ReadStats(reader("SERVER_ERROR x\r\n")); err == nil {
		t.Error("error stats accepted")
	}
}

func TestWriterHelpers(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(bufio.NewWriter(&buf))
	_ = w.Number(42)
	_ = w.Version("memqlat-1.0")
	_ = w.ClientErrorf("bad %s", "thing")
	_ = w.ServerErrorf("oops %d", 3)
	_ = w.Flush()
	out := buf.String()
	for _, want := range []string{"42\r\n", "VERSION memqlat-1.0\r\n",
		"CLIENT_ERROR bad thing\r\n", "SERVER_ERROR oops 3\r\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q: %q", want, out)
		}
	}
}

// Property: any set command round-trips its value byte-for-byte.
func TestPropertySetValueRoundTrip(t *testing.T) {
	f := func(value []byte) bool {
		if len(value) > 1024 {
			value = value[:1024]
		}
		var req bytes.Buffer
		req.WriteString("set k 0 0 ")
		req.WriteString(itoa(len(value)))
		req.WriteString("\r\n")
		req.Write(value)
		req.WriteString("\r\n")
		cmd, err := parse(bufio.NewReader(&req))
		if err != nil {
			return false
		}
		return bytes.Equal(cmd.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the parser never panics on arbitrary input bytes.
func TestPropertyParserNoPanic(t *testing.T) {
	f := func(junk []byte) bool {
		p := NewParser(bufio.NewReader(bytes.NewReader(junk)))
		for i := 0; i < 10; i++ {
			if _, err := p.Next(); err != nil {
				if IsRecoverable(err) {
					continue
				}
				return true // stream-level stop is fine
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestParseGat(t *testing.T) {
	cmd, err := parse(reader("gat 60 k1 k2\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpGat || cmd.Exptime != 60 || len(cmd.KeyList) != 2 || string(cmd.KeyList[1]) != "k2" {
		t.Errorf("cmd = %+v", cmd)
	}
	cmd, err = parse(reader("gats 0 k\r\n"))
	if err != nil || cmd.Op != OpGats {
		t.Fatalf("gats: %+v %v", cmd, err)
	}
	if _, err := parse(reader("gat 60\r\n")); err == nil {
		t.Error("gat without keys accepted")
	}
	if _, err := parse(reader("gat abc k\r\n")); err == nil {
		t.Error("gat bad exptime accepted")
	}
	if OpGat.String() != "gat" || OpGats.String() != "gats" {
		t.Error("gat op names wrong")
	}
}

func TestParseStatsSection(t *testing.T) {
	cmd, err := parse(reader("stats items\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != OpStats || string(cmd.KeyB) != "items" {
		t.Errorf("cmd = %+v", cmd)
	}
	cmd, err = parse(reader("stats\r\n"))
	if err != nil || string(cmd.KeyB) != "" {
		t.Fatalf("bare stats: %+v %v", cmd, err)
	}
}

// TestDeadlineRule: however requests fall, the deadline Arm leaves is
// never less than T nor more than 9T/8 past the start of the request
// that set it, and at least T past every later one; the socket is set at
// most once per T/8 of request time, and not at all for any number of
// requests within T/8 of the one that set it.
func TestDeadlineRule(t *testing.T) {
	const T = 8 * time.Second
	var d Deadline
	if !d.at.IsZero() {
		t.Fatal("the zero Deadline carries a deadline")
	}
	var socket time.Time // what the socket carries
	sets := 0
	set := func(at time.Time) error {
		socket = at
		sets++
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	base := time.Now()
	start := base
	for i := 0; i < 10000; i++ {
		start = start.Add(time.Duration(rng.Int63n(int64(T / 4))))
		before := sets
		if err := d.Arm(set, start, T); err != nil {
			t.Fatal(err)
		}
		if !socket.Equal(d.at) {
			t.Fatalf("request %d: the socket carries %v, the Deadline holds %v", i, socket, d.at)
		}
		ahead := socket.Sub(start)
		if ahead < T || ahead > T+T/8 || sets > before && ahead != T+T/8 {
			t.Fatalf("request %d: deadline %v ahead of its start (set: %v), want [T, 9T/8]", i, ahead, sets > before)
		}
	}
	if most := int(start.Sub(base)/(T/8)) + 1; sets > most {
		t.Errorf("%d sets over %v of requests, want <= %d", sets, start.Sub(base), most)
	}

	d, sets = Deadline{}, 0
	for i := 0; i <= 1000; i++ {
		if err := d.Arm(set, base.Add(time.Duration(i)*(T/8)/1000), T); err != nil {
			t.Fatal(err)
		}
	}
	if sets != 1 {
		t.Errorf("1001 requests within T/8 set the socket %d times, want once", sets)
	}
	_ = d.Arm(set, base.Add(T/8+1), T)
	if sets != 2 {
		t.Error("a request just past T/8 left the deadline less than T ahead")
	}
	fail := errors.New("closed")
	if err := (&Deadline{}).Arm(func(time.Time) error { return fail }, base, T); !errors.Is(err, fail) {
		t.Errorf("Arm = %v, want the setter's error", err)
	}
}
