// Package protocol implements the memcached ASCII (text) protocol:
// server-side command parsing, server-side response writing, and
// client-side response parsing. It covers the commands the paper's
// workload exercises (get/gets/set and friends) plus the common
// management commands, with noreply support.
package protocol

import (
	"errors"
	"fmt"
	"time"
)

// Op enumerates protocol commands.
type Op int

// Supported operations.
const (
	OpGet Op = iota + 1
	OpGets
	OpSet
	OpAdd
	OpReplace
	OpAppend
	OpPrepend
	OpCas
	OpDelete
	OpIncr
	OpDecr
	OpTouch
	OpGat
	OpGats
	OpStats
	OpFlushAll
	OpVersion
	OpVerbosity
	OpQuit
	// OpTrace is the out-of-band tracing header "mq_trace <trace>
	// <parent>": it carries a request-scoped trace context (two decimal
	// uint64 IDs, stored in CAS and Delta) that applies to the next
	// command on the connection. It elicits no reply, so untraced
	// pipelines are byte-identical to traced ones minus the headers.
	OpTrace
)

// opNames is the wire verb of every Op: what Op.String prints, what the
// framer's verb lookup matches and what the Append encoders emit.
var opNames = [...]string{
	OpGet: "get", OpGets: "gets", OpSet: "set", OpAdd: "add",
	OpReplace: "replace", OpAppend: "append", OpPrepend: "prepend",
	OpCas: "cas", OpDelete: "delete", OpIncr: "incr", OpDecr: "decr",
	OpTouch: "touch", OpGat: "gat", OpGats: "gats",
	OpStats: "stats", OpFlushAll: "flush_all",
	OpVersion: "version", OpVerbosity: "verbosity", OpQuit: "quit",
	OpTrace: "mq_trace",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if o > 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// MaxValueBytes bounds the data block a parser will accept (matches the
// cache's 1 MiB default item limit).
const MaxValueBytes = 1 << 20

// MaxLineBytes bounds a single command line a client may send: the
// retrieval encoder splits longer key lists into pipelined lines.
const MaxLineBytes = 8 << 10

// ConnBufferBytes is the longest command line a Parser accepts — so the
// longest a server or the proxy accepts, twice MaxLineBytes, the longest
// a client frames — and the most reply bytes a Writer holds before it
// writes them. It also sizes the event loop's per-loop read buffer and
// the proxy's upstream connection buffers.
const ConnBufferBytes = 16 << 10

// Deadline is the deadline a socket carries (zero: none). Arm moves it only
// when under timeout ahead, to 9/8 timeout past the start: an exchange fails
// 1 to 9/8 timeouts after it began; steady requests set it once per timeout/8.
type Deadline struct{ at time.Time }

// Arm sets, through set, the deadline an exchange begun at start needs,
// unless the one carried covers it. Zero d after setting the socket directly.
func (d *Deadline) Arm(set func(time.Time) error, start time.Time, timeout time.Duration) error {
	if d.at.Sub(start) >= timeout {
		return nil
	}
	d.at = start.Add(timeout + timeout/8)
	return set(d.at)
}

// ClientError is a malformed-request error; servers report it as
// CLIENT_ERROR and keep the connection open.
type ClientError struct {
	Msg string
}

// Error implements error.
func (e *ClientError) Error() string { return "protocol: client error: " + e.Msg }

// ErrQuit is returned by the parsers when the peer sent quit.
var ErrQuit = errors.New("protocol: quit")

// Command is one parsed request. Its byte-slice fields alias the
// parser's input buffer: valid until the next call on the parser that
// produced it.
type Command struct {
	Op      Op
	KeyB    []byte   // single-key ops
	KeyList [][]byte // get/gets/gat/gats
	Flags   uint32
	Exptime int64 // raw exptime token (memcached semantics)
	Value   []byte
	CAS     uint64
	Delta   uint64 // incr/decr amount
	Noreply bool
	Level   int // verbosity
}
