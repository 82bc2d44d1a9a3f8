package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Canonical one-line replies.
const (
	RespStored    = "STORED"
	RespNotStored = "NOT_STORED"
	RespExists    = "EXISTS"
	RespNotFound  = "NOT_FOUND"
	RespDeleted   = "DELETED"
	RespTouched   = "TOUCHED"
	RespOK        = "OK"
	RespEnd       = "END"
	RespError     = "ERROR"
)

var crlf = []byte("\r\n")

// Writer emits protocol responses. It owns one reply buffer, which
// holds only the replies owed: it starts empty, grows with them up to
// ConnBufferBytes, and Flush hands its bytes to the destination in one
// Write. A write that does not fit drains the buffer first; one larger
// than the whole buffer goes straight through, as with a bufio.Writer of
// that size, so a parked connection pins no reply memory it never used.
type Writer struct {
	dst io.Writer
	buf []byte
	// next is dst's own Flush when dst buffers too (a *bufio.Writer):
	// Flush pushes the bytes all the way through it.
	next interface{ Flush() error }
}

// NewWriter returns a Writer owing its replies to w.
func NewWriter(w io.Writer) *Writer {
	next, _ := w.(interface{ Flush() error })
	return &Writer{dst: w, next: next}
}

// Reset retargets the Writer at w, keeping its buffer; any reply bytes
// still owed to the old destination are dropped.
func (w *Writer) Reset(dst io.Writer) {
	w.dst = dst
	w.next, _ = dst.(interface{ Flush() error })
	w.buf = w.buf[:0]
}

// Buffered reports how many reply bytes the next Flush writes.
func (w *Writer) Buffered() int { return len(w.buf) }

// Write buffers p, implementing io.Writer for relays and fmt.
func (w *Writer) Write(p []byte) (int, error) {
	if err := write(w, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// write buffers p, draining the buffer each time it fills. When the
// buffer is empty, a p larger than all of it goes straight through.
func write[T string | []byte](w *Writer, p T) error {
	for len(p) > ConnBufferBytes-len(w.buf) {
		if len(w.buf) == 0 {
			_, err := w.dst.Write([]byte(p))
			return err
		}
		k := ConnBufferBytes - len(w.buf)
		w.buf = append(w.reserve(k), p[:k]...)
		p = p[k:]
		if err := w.drain(); err != nil {
			return err
		}
	}
	w.buf = append(w.reserve(len(p)), p...)
	return nil
}

// reserve returns the buffer with room for n more bytes, growing it by
// doubling from 512 bytes, never past ConnBufferBytes (callers never
// ask for more).
func (w *Writer) reserve(n int) []byte {
	if len(w.buf)+n <= cap(w.buf) {
		return w.buf
	}
	grown := make([]byte, len(w.buf), min(max(2*cap(w.buf), len(w.buf)+n, 512), ConnBufferBytes))
	copy(grown, w.buf)
	return grown
}

// room drains the buffer when fewer than n bytes are left before
// ConnBufferBytes, then returns it with room for n more.
func (w *Writer) room(n int) ([]byte, error) {
	if ConnBufferBytes-len(w.buf) < n {
		if err := w.drain(); err != nil {
			return nil, err
		}
	}
	return w.reserve(n), nil
}

// drain writes the buffered bytes to the destination in one Write.
func (w *Writer) drain() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.dst.Write(w.buf)
	if err == nil && n < len(w.buf) {
		err = io.ErrShortWrite
	}
	w.buf = w.buf[:0]
	return err
}

// Line writes a bare reply line (one of the Resp* constants or a
// numeric incr/decr result).
func (w *Writer) Line(s string) error {
	if err := write(w, s); err != nil {
		return err
	}
	return write(w, crlf)
}

// Value writes one VALUE block; pass withCAS for gets responses.
func (w *Writer) Value(key string, flags uint32, cas uint64, value []byte, withCAS bool) error {
	return w.ValueBytes([]byte(key), flags, cas, value, withCAS)
}

// ValueBytes writes one VALUE block without allocating: the header is
// appended in place (draining the buffer first when the header might
// not fit), so pipelined gets coalesce and go out in one syscall at the
// next Flush.
func (w *Writer) ValueBytes(key []byte, flags uint32, cas uint64, value []byte, withCAS bool) error {
	// Worst-case header: "VALUE " + key + 3 numbers + spaces + CRLF.
	buf, err := w.room(len(key) + 64)
	if err != nil {
		return err
	}
	buf = append(buf, "VALUE "...)
	buf = append(buf, key...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, uint64(flags), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, uint64(len(value)), 10)
	if withCAS {
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, cas, 10)
	}
	w.buf = append(buf, '\r', '\n')
	if err := write(w, value); err != nil {
		return err
	}
	return write(w, crlf)
}

// End terminates a retrieval response.
func (w *Writer) End() error { return w.Line(RespEnd) }

// Number writes an incr/decr result without allocating.
func (w *Writer) Number(n uint64) error {
	buf, err := w.room(22) // 20 digits + CRLF
	if err != nil {
		return err
	}
	w.buf = append(strconv.AppendUint(buf, n, 10), '\r', '\n')
	return nil
}

// Stat writes one STAT line.
func (w *Writer) Stat(name, value string) error {
	_, err := w.Write(AppendStat(nil, name, value))
	return err
}

// AppendStat appends one "STAT <name> <value>" line, the row of every
// stats reply, the server's and the proxy's.
func AppendStat(dst []byte, name, value string) []byte {
	dst = append(append(append(append(dst, "STAT "...), name...), ' '), value...)
	return append(dst, crlf...)
}

// Version writes a VERSION line.
func (w *Writer) Version(v string) error { return w.Line("VERSION " + v) }

// ClientErrorf reports a malformed request without closing the stream.
func (w *Writer) ClientErrorf(format string, args ...any) error {
	_, err := fmt.Fprintf(w, "CLIENT_ERROR "+format+"\r\n", args...)
	return err
}

// ServerErrorf reports an internal failure.
func (w *Writer) ServerErrorf(format string, args ...any) error {
	_, err := fmt.Fprintf(w, "SERVER_ERROR "+format+"\r\n", args...)
	return err
}

// Flush writes the owed replies to the destination — one Write — and
// flushes the destination too when it buffers.
func (w *Writer) Flush() error {
	if err := w.drain(); err != nil {
		return err
	}
	if w.next != nil {
		return w.next.Flush()
	}
	return nil
}

// ---- Reply scanning (clients and the proxy's relay) ----

// ReplyKind classifies one line of a server reply.
type ReplyKind uint8

const (
	// ReplyLine is any other line: STORED, DELETED, a number, STAT ….
	ReplyLine ReplyKind = iota
	// ReplyValue is a well-formed VALUE header; its data block follows.
	ReplyValue
	// ReplyEnd is the END that closes a retrieval or stats reply.
	ReplyEnd
	// ReplyError is an error line, see IsErrorReply.
	ReplyError
)

// Reply is one scanned reply line.
type Reply struct {
	Kind ReplyKind
	// Line is the raw line, terminator included, so a relay can forward
	// it verbatim. It aliases the reader's buffer: valid until the next
	// read.
	Line []byte
	// The fields of "VALUE <key> <flags> <bytes> [<cas>]" (ReplyValue
	// only; Key aliases Line). The Bytes-long data block and its CRLF
	// follow on the stream and are the caller's to consume.
	Key   []byte
	Flags uint32
	Bytes int
	CAS   uint64
}

// ScanReply reads and classifies the next line of a reply: the one place
// the reply grammar is written down. A reply is a single line, or — for
// retrievals and stats — a run of VALUE blocks / STAT lines closed by
// END or by an error line. A line that starts like a VALUE header but
// does not parse as one is a ReplyLine, which no retrieval allows: the
// reader reports it as the desync it is.
func ScanReply(r *bufio.Reader) (Reply, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return Reply{}, err // bufio.ErrBufferFull included: no reply line is that long
	}
	rep := Reply{Line: line}
	if len(line) > 6 && string(line[:6]) == "VALUE " { // the hot case first
		scanValueHeader(&rep, line[6:])
		return rep, nil
	}
	switch text := rep.Text(); {
	case string(text) == RespEnd:
		rep.Kind = ReplyEnd
	case IsErrorReply(text):
		rep.Kind = ReplyError
	}
	return rep, nil
}

// scanValueHeader cuts "<key> <flags> <bytes> [<cas>]" out of rest — what
// follows "VALUE " on the line, terminator included — in place, under the
// framer's whitespace grammar (fields are runs of bytes above ' ',
// separated by any run of ASCII whitespace, which the terminator is).
// It makes rep a ReplyValue only when all of it parses.
func scanValueHeader(rep *Reply, rest []byte) {
	key, rest := cutField(rest)
	flagsB, rest := cutField(rest)
	sizeB, rest := cutField(rest)
	casB, rest := cutField(rest)
	if extra, _ := cutField(rest); len(sizeB) == 0 || len(extra) != 0 {
		return // fewer than three fields, or more than four
	}
	flags, okF := parseUintB(flagsB, 32)
	size, okN := parseUintB(sizeB, 31)
	cas, okC := uint64(0), true
	if len(casB) != 0 {
		cas, okC = parseUintB(casB, 64)
	}
	if okF && okN && okC && size <= MaxValueBytes {
		rep.Kind, rep.Key, rep.Flags, rep.Bytes, rep.CAS = ReplyValue, key, uint32(flags), int(size), cas
	}
}

// cutField returns the first whitespace-delimited field of b and what
// follows it; the field is empty when b holds none.
func cutField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && asciiSpace(b[i]) {
		i++
	}
	start := i
	for i < len(b) && !asciiSpace(b[i]) {
		i++
	}
	return b[start:i], b[i:]
}

// IsErrorReply reports whether line (terminator optional) is an error
// reply as protocol.txt defines them: exactly "ERROR", or "CLIENT_ERROR"
// / "SERVER_ERROR" followed by a space or the end of the line.
func IsErrorReply(line []byte) bool {
	line = bytes.TrimRight(line, "\r\n")
	if string(line) == RespError {
		return true
	}
	for _, prefix := range [...]string{"CLIENT_ERROR", "SERVER_ERROR"} {
		if rest, ok := bytes.CutPrefix(line, []byte(prefix)); ok && (len(rest) == 0 || rest[0] == ' ') {
			return true
		}
	}
	return false
}

// Text is Line without its terminator. Like Line, it aliases the
// reader's buffer.
func (r Reply) Text() []byte { return bytes.TrimRight(r.Line, "\r\n") }

// ValueItem is one VALUE block of a retrieval response.
type ValueItem struct {
	Key   string
	Value []byte
	Flags uint32
	CAS   uint64
}

// ServerError is an error reply from the server (ERROR, CLIENT_ERROR or
// SERVER_ERROR).
type ServerError struct {
	Line string
}

// Error implements error.
func (e *ServerError) Error() string { return "protocol: server replied " + e.Line }

// A RetrievalReader reads the replies to retrieval lines (get, gets,
// gat, gats) — the one implementation of the retrieval-reply grammar:
// zero or more VALUE blocks closed by END. The zero value reads any
// reply; a caller that knows what it asked for sets Want and saves the
// key copies.
//
// When Want is set, the values of the replies one reader reads are
// carved out of shared slabs: each has its own bytes and no spare
// capacity, but they may share a backing array, so a caller that retains
// one value retains its neighbours too — at most the size of the
// bufio.Reader's buffer (see carve).
type RetrievalReader struct {
	// Want lists the keys the replies still to be read were asked for, in
	// request order. Servers answer in that order and leave misses out,
	// so a VALUE's key is looked for from the front of Want and, when
	// found, the item carries that string instead of a copy; Read drops
	// the entries it has passed. A key that is not ahead means the peer
	// does not answer in order: it is copied, and so is every later one.
	Want []string
	slab []byte // what is left of the current slab
}

// Read reads one reply, handing each item to emit as its block
// completes. It returns emit's error, if any, at once, with the rest of
// the reply unread; an error reply comes back as *ServerError with the
// stream at the next reply. Items emitted before an error stand for
// nothing: the caller drops them.
func (rr *RetrievalReader) Read(r *bufio.Reader, emit func(ValueItem) error) error {
	for {
		rep, err := ScanReply(r)
		if err != nil {
			return err
		}
		switch rep.Kind {
		case ReplyEnd:
			return nil
		case ReplyError:
			return &ServerError{Line: string(rep.Text())}
		case ReplyLine:
			return fmt.Errorf("protocol: unexpected retrieval line %q", rep.Text())
		}
		item := ValueItem{Key: rr.key(rep.Key), Flags: rep.Flags, CAS: rep.CAS} // rep.Key is dead after the next read
		block := rr.carve(rep.Bytes+len(crlf), r.Buffered())
		if _, err := io.ReadFull(r, block); err != nil {
			return err
		}
		if block[rep.Bytes] != '\r' || block[rep.Bytes+1] != '\n' {
			return errors.New("protocol: bad data chunk terminator")
		}
		item.Value = block[:rep.Bytes:rep.Bytes]
		if err := emit(item); err != nil {
			return err
		}
	}
}

// key returns the VALUE key as a string: the caller's own when it is
// the next wanted key still ahead, else a copy.
func (rr *RetrievalReader) key(k []byte) string {
	for i, w := range rr.Want {
		if w == string(k) {
			rr.Want = rr.Want[i+1:]
			return w
		}
	}
	rr.Want = nil
	return string(k)
}

// carve returns n bytes with no spare capacity from the current slab,
// starting a new slab when it runs out. A new slab has room for this
// block and one like it for every key still wanted — one allocation for
// a reply of like-sized values, one per value when Want is not set — but
// no more than the reader has buffered (with one request in flight, the
// rest of its reply), which bounds a slab by the reader's buffer size; a
// larger value gets exactly its own bytes.
func (rr *RetrievalReader) carve(n, buffered int) []byte {
	if n > len(rr.slab) {
		rr.slab = make([]byte, max(n, min(n*(1+len(rr.Want)), buffered)))
	}
	b := rr.slab[:n:n]
	rr.slab = rr.slab[n:]
	return b
}

// ReadRetrieval reads one retrieval reply whose keys the caller does not
// know and returns its items.
func ReadRetrieval(r *bufio.Reader) ([]ValueItem, error) {
	var items []ValueItem
	var rr RetrievalReader
	err := rr.Read(r, func(it ValueItem) error {
		items = append(items, it)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// ReadLineReply reads a one-line reply (STORED, DELETED, a number, ...).
// Error replies surface as *ServerError.
func ReadLineReply(r *bufio.Reader) (string, error) {
	rep, err := ScanReply(r)
	if err != nil {
		return "", err
	}
	if rep.Kind == ReplyError {
		return "", &ServerError{Line: string(rep.Text())}
	}
	return string(rep.Text()), nil
}

// ReadStats parses a stats response: STAT lines until END.
func ReadStats(r *bufio.Reader) (map[string]string, error) {
	out := make(map[string]string)
	for {
		rep, err := ScanReply(r)
		if err != nil {
			return nil, err
		}
		switch rep.Kind {
		case ReplyEnd:
			return out, nil
		case ReplyError:
			return nil, &ServerError{Line: string(rep.Text())}
		}
		fields := bytes.SplitN(rep.Text(), []byte(" "), 3)
		if len(fields) != 3 || string(fields[0]) != "STAT" {
			return nil, fmt.Errorf("protocol: unexpected stats line %q", rep.Text())
		}
		out[string(fields[1])] = string(fields[2])
	}
}

// IsRecoverable reports whether err allows the server loop to continue
// the connection (malformed request) rather than closing it (I/O error).
func IsRecoverable(err error) bool {
	var ce *ClientError
	return errors.As(err, &ce)
}

// EOFOrNil normalizes a clean peer close: io.EOF becomes nil so callers
// can distinguish orderly shutdown from failures.
func EOFOrNil(err error) error {
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}
