package protocol

import (
	"bytes"
	"errors"
	"io"
)

// ErrIncomplete is returned by StreamParser.Next when the buffered
// bytes do not yet hold a complete frame: the caller should feed more
// input when the connection next becomes readable. It is a state, not a
// failure — nothing has been consumed and the parse resumes exactly
// where it stopped.
var ErrIncomplete = errors.New("protocol: incomplete frame")

// streamShrinkCap bounds how much buffer capacity an idle StreamParser
// retains: once the buffer drains, anything larger is released so a
// connection that once carried a large value does not pin that memory
// for the rest of its (possibly very long) life.
const streamShrinkCap = 64 << 10

// StreamParser is the request framer: the one consumer of request bytes
// and the one place a command line is parsed. It takes the stream in
// arbitrary chunks — a partial line, many pipelined commands, a data
// block split at any byte boundary — and yields complete commands with
// Next; ErrIncomplete means "wait for more input". The event-loop server
// feeds it whatever a readiness-driven read returned; the blocking
// Parser reads into its buffer directly.
//
// Aliasing contract: the returned Command, its byte-slice fields and
// Frame are slices of the input buffer, valid only until the next call
// to Feed or Next.
type StreamParser struct {
	maxLine int
	buf     []byte // unconsumed input, appended by Feed
	off     int    // consumed prefix of buf
	// discard eats input through the next '\n' after a command line that
	// overflowed maxLine before its newline arrived.
	discard bool
	cmd     Command
	fields  [][]byte // reused field-splitter output; cmd.KeyList aliases it
	capture bool
	frame   []byte // the last command's wire bytes (capture on)
	norm    []byte // reused copy for frames whose line needed a CRLF rewrite
}

// NewStreamParser returns a StreamParser. maxLine bounds a single
// command line; 0 applies ConnBufferBytes, the blocking Parser's limit.
func NewStreamParser(maxLine int) *StreamParser {
	if maxLine <= 0 {
		maxLine = ConnBufferBytes
	}
	return &StreamParser{maxLine: maxLine}
}

// CaptureFrames toggles frame capture: when on, each successful Next
// also records the command's wire bytes for Frame.
func (s *StreamParser) CaptureFrames(on bool) {
	s.capture = on
	s.frame = nil
}

// Frame returns the wire bytes of the command most recently returned by
// Next — the command line, terminated by exactly one CRLF, plus the data
// block for storage ops — so a proxy can forward the frame verbatim
// without re-serializing. It is a slice of the input buffer (a copy only
// when the line arrived with a bare "\n" and had to be rewritten), and
// only meaningful after a successful Next with capture enabled.
func (s *StreamParser) Frame() []byte { return s.frame }

// Feed appends a chunk of input. The chunk is copied, so the caller may
// reuse its read buffer immediately. Commands previously returned by
// Next are invalidated.
func (s *StreamParser) Feed(data []byte) {
	if s.off == len(s.buf) {
		s.buf = s.buf[:0]
		s.off = 0
	} else if s.off > 4096 && s.off > len(s.buf)/2 {
		n := copy(s.buf, s.buf[s.off:])
		s.buf = s.buf[:n]
		s.off = 0
	}
	s.buf = append(s.buf, data...)
}

// readFrom reads once from r into the buffer's spare room, first
// making room when the last read filled it: sliding the unconsumed
// bytes down when that frees at least half, else doubling. The first
// buffer is 512 bytes, room for a few pipelined gets.
func (s *StreamParser) readFrom(r io.Reader) (int, error) {
	if len(s.buf) == cap(s.buf) {
		live := s.buf[s.off:]
		size := cap(s.buf)
		if size < 512 || 2*len(live) > size {
			size = max(2*size, 512)
		}
		if size == cap(s.buf) {
			s.buf = s.buf[:copy(s.buf, live)]
		} else {
			s.buf = append(make([]byte, 0, size), live...)
		}
		s.off = 0
	}
	n, err := r.Read(s.buf[len(s.buf):cap(s.buf)])
	s.buf = s.buf[:len(s.buf)+n]
	return n, err
}

// Buffered reports how many fed bytes are not yet consumed.
func (s *StreamParser) Buffered() int { return len(s.buf) - s.off }

// consume marks n more bytes parsed and, once the buffer drains,
// recycles it — dropping outsized capacity so long-lived mostly-idle
// connections stay cheap. Slices already handed out keep the old array.
func (s *StreamParser) consume(n int) {
	s.off += n
	if s.off != len(s.buf) {
		return
	}
	if cap(s.buf) > streamShrinkCap {
		s.buf = nil
	} else {
		s.buf = s.buf[:0]
	}
	s.off = 0
}

// Next parses the next complete command out of the buffered input.
// ErrIncomplete means a partial frame is buffered and nothing was
// consumed; *ClientError reports a malformed request with the stream
// resynchronized past it (the connection can continue); ErrQuit reports
// an orderly quit.
func (s *StreamParser) Next() (*Command, error) {
	rest := s.buf[s.off:]
	i := bytes.IndexByte(rest, '\n')
	switch {
	case i < 0:
		if s.discard || len(rest) >= s.maxLine {
			// The line already overflows the limit: drop what has arrived
			// and keep dropping until its newline shows up.
			s.discard = true
			s.consume(len(rest))
		}
		return nil, ErrIncomplete
	case s.discard || i >= s.maxLine:
		s.discard = false
		s.consume(i + 1)
		return nil, &ClientError{Msg: "line too long"}
	}
	line := bytes.TrimRight(rest[:i], "\r")
	end := i + 1
	need, err := s.parseLine(line)
	if err != nil {
		s.consume(end)
		return nil, err
	}
	if need >= 0 {
		// A storage command is whole only with its data block; until then
		// the line stays unconsumed and is parsed again on the next call.
		if len(rest) < end+need+2 {
			return nil, ErrIncomplete
		}
		s.cmd.Value = rest[end : end+need]
		end += need + 2
		if rest[end-2] != '\r' || rest[end-1] != '\n' {
			s.consume(end)
			return nil, &ClientError{Msg: "bad data chunk terminator"}
		}
	}
	if s.capture {
		s.frame = rest[:end]
		if i-len(line) != 1 { // not exactly one "\r" before the "\n"
			s.norm = append(append(append(s.norm[:0], line...), crlf...), rest[i+1:end]...)
			s.frame = s.norm
		}
	}
	s.consume(end)
	return &s.cmd, nil
}
