// Package keylog records and replays key-access journals (the files
// mcbench -trace writes; "trace" elsewhere in the repo means spans, see
// internal/otrace). Journals connect
// the live substrate to the analysis side of the reproduction: the load
// generator can journal the key stream it issued, the mrc package turns
// a trace into a miss-ratio curve (the model's r input), and Replay
// re-drives any consumer — including a live cluster — with the original
// timing.
//
// The format is line-oriented text, one access per line:
//
//	<offset-nanoseconds> <key>\n
//
// chosen over a binary encoding so traces diff, grep and compress well.
package keylog

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Record is one key access, stamped with its offset from trace start.
type Record struct {
	Offset time.Duration
	Key    string
}

// ErrSyntax reports a malformed trace line.
var ErrSyntax = errors.New("keylog: malformed line")

// keySpace is what no journalled key contains, on write or on read.
const keySpace = " \t\r\n"

// Writer journals records to an underlying stream.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record. Keys must be non-empty and contain no
// whitespace or newlines (the memcached key grammar already guarantees
// this for real workloads).
func (t *Writer) Write(rec Record) error {
	if t.err != nil {
		return t.err
	}
	if rec.Key == "" || strings.ContainsAny(rec.Key, keySpace) {
		return fmt.Errorf("keylog: invalid key %q", rec.Key)
	}
	if rec.Offset < 0 {
		return fmt.Errorf("keylog: negative offset %v", rec.Offset)
	}
	if _, err := t.w.WriteString(strconv.FormatInt(rec.Offset.Nanoseconds(), 10)); err != nil {
		t.err = err
		return err
	}
	if err := t.w.WriteByte(' '); err != nil {
		t.err = err
		return err
	}
	if _, err := t.w.WriteString(rec.Key); err != nil {
		t.err = err
		return err
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
		return err
	}
	return nil
}

// Flush pushes buffered output through.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader parses a trace stream.
type Reader struct {
	s    *bufio.Scanner
	line int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64<<10), 64<<10)
	return &Reader{s: s}
}

// Next returns the next record, io.EOF at end of stream, or a
// line-numbered error wrapping ErrSyntax for malformed input.
func (r *Reader) Next() (Record, error) {
	for r.s.Scan() {
		r.line++
		line := strings.TrimSpace(r.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue // blank lines and comments are permitted
		}
		sep := strings.IndexByte(line, ' ')
		if sep <= 0 || sep == len(line)-1 {
			return Record{}, fmt.Errorf("%w: line %d: %q", ErrSyntax, r.line, line)
		}
		nanos, err := strconv.ParseInt(line[:sep], 10, 64)
		if err != nil || nanos < 0 {
			return Record{}, fmt.Errorf("%w: line %d: bad offset %q", ErrSyntax, r.line, line[:sep])
		}
		key := strings.TrimSpace(line[sep+1:])
		if strings.ContainsAny(key, keySpace) {
			return Record{}, fmt.Errorf("%w: line %d: key contains whitespace", ErrSyntax, r.line)
		}
		return Record{Offset: time.Duration(nanos), Key: key}, nil
	}
	if err := r.s.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadAll slurps the remaining records.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Keys extracts just the key column (the mrc package's input).
func Keys(records []Record) []string {
	out := make([]string, len(records))
	for i, rec := range records {
		out[i] = rec.Key
	}
	return out
}

// Replay re-drives the records against fn, honoring inter-access gaps
// scaled by speedup (2.0 = twice as fast; 0 or negative = as fast as
// possible). It stops at the first fn error or context cancellation.
func Replay(ctx context.Context, records []Record, speedup float64, fn func(key string) error) error {
	if fn == nil {
		return errors.New("keylog: nil replay function")
	}
	start := time.Now()
	for i, rec := range records {
		if speedup > 0 {
			due := start.Add(time.Duration(float64(rec.Offset) / speedup))
			if d := time.Until(due); d > 0 {
				timer := time.NewTimer(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return ctx.Err()
				}
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if err := fn(rec.Key); err != nil {
			return fmt.Errorf("keylog: replay record %d (%q): %w", i, rec.Key, err)
		}
	}
	return nil
}
