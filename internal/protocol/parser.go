package protocol

import "io"

// Parser is the blocking front of the request framer: a fill loop that
// reads from its io.Reader straight into a StreamParser's buffer and
// asks it for the next command. The goroutine server core and the
// proxy's downstream side own one per connection; its buffer grows only
// when a read fills it, so an idle connection holds next to nothing.
// Its command-line limit is ConnBufferBytes.
//
// Aliasing contract: the Command returned by Next, its KeyB, KeyList and
// Value fields, and Frame all alias the framer's input buffer. Everything
// is valid only until the next call to Next; callers that retain any of
// it must copy first (the cache's SetBytes/GetInto do).
type Parser struct {
	r   io.Reader
	s   StreamParser
	err error // a read error that arrived with data, returned next
}

// NewParser returns a Parser reading from r.
func NewParser(r io.Reader) *Parser {
	return &Parser{r: r, s: StreamParser{maxLine: ConnBufferBytes}}
}

// CaptureFrames toggles frame capture: when on, each successful Next
// additionally records the command's wire bytes for Frame. Off by
// default — the server's parse loop never pays for it.
func (p *Parser) CaptureFrames(on bool) { p.s.CaptureFrames(on) }

// Frame returns the wire bytes of the command most recently returned by
// Next; see StreamParser.Frame.
func (p *Parser) Frame() []byte { return p.s.Frame() }

// Buffered reports how many received bytes Next has not consumed yet: 0
// means the pipeline is drained and the caller should flush its replies.
func (p *Parser) Buffered() int { return p.s.Buffered() }

// Next parses one command. Malformed requests yield a *ClientError
// (recoverable); I/O failures yield the underlying error; a quit
// command yields ErrQuit. See the type comment for the aliasing rules
// of the returned Command.
func (p *Parser) Next() (*Command, error) {
	for {
		cmd, err := p.s.Next()
		if err != ErrIncomplete {
			return cmd, err
		}
		if p.err != nil {
			return nil, p.err
		}
		n, err := p.s.readFrom(p.r)
		if err != nil {
			if n == 0 {
				return nil, err
			}
			p.err = err // parse what arrived first
		}
	}
}

// appendFields splits line on ASCII whitespace, appending the fields to
// dst (the protocol is ASCII; keys cannot contain bytes <= ' ').
func appendFields(dst [][]byte, line []byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !asciiSpace(line[i]) {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

func asciiSpace(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// parseUintB parses a plain decimal (digits only, like strconv.ParseUint
// with a sign prefix disallowed) bounded to bitSize bits, without
// materializing a string.
func parseUintB(b []byte, bitSize int) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	max := uint64(1)<<uint(bitSize) - 1 // shift >= 64 yields 0; 0-1 wraps to MaxUint64
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseIntB parses an optionally signed decimal bounded to bitSize bits.
func parseIntB(b []byte, bitSize int) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	n, ok := parseUintB(b, 64)
	if !ok {
		return 0, false
	}
	limit := uint64(1) << uint(bitSize-1)
	switch {
	case neg && n == limit:
		return -int64(limit-1) - 1, true
	case neg && n < limit:
		return -int64(n), true
	case !neg && n < limit:
		return int64(n), true
	}
	return 0, false
}

// lookupOp maps a wire verb to its Op (0 when unknown).
func lookupOp(verb []byte) Op {
	for op := OpGet; int(op) < len(opNames); op++ {
		if string(verb) == opNames[op] { // comparison only: no allocation
			return op
		}
	}
	return 0
}

// parseLine parses one complete command line (terminator already
// stripped) into the framer's reusable Command. Storage commands return
// need >= 0: the command is complete only once the need-byte data block
// (plus CRLF) follows the line in the input; every other command returns
// need == -1, complete as is. The line is parsed without touching the
// rest of the input, so the data block can arrive in a later read.
func (s *StreamParser) parseLine(line []byte) (need int, err error) {
	s.fields = appendFields(s.fields[:0], line)
	if len(s.fields) == 0 {
		return -1, &ClientError{Msg: "empty command"}
	}
	op, args := lookupOp(s.fields[0]), s.fields[1:]
	s.cmd = Command{Op: op}
	switch op {
	case OpGet, OpGets:
		if len(args) == 0 {
			return -1, &ClientError{Msg: opNames[op] + " requires at least one key"}
		}
		s.cmd.KeyList = args
	case OpGat, OpGats:
		if len(args) < 2 {
			return -1, &ClientError{Msg: opNames[op] + " requires an exptime and at least one key"}
		}
		s.cmd.KeyList = args[1:]
		err = s.parseExptime(args[0])
	case OpSet, OpAdd, OpReplace, OpAppend, OpPrepend:
		return s.parseStorage(args, 4)
	case OpCas:
		if need, err = s.parseStorage(args, 5); err == nil {
			var ok bool
			if s.cmd.CAS, ok = parseUintB(args[4], 64); !ok {
				return -1, &ClientError{Msg: "bad cas token"}
			}
		}
		return need, err
	case OpDelete:
		err = s.parseKeyed(args, 1)
	case OpIncr, OpDecr:
		if err = s.parseKeyed(args, 2); err == nil {
			var ok bool
			if s.cmd.Delta, ok = parseUintB(args[1], 64); !ok {
				err = &ClientError{Msg: "invalid numeric delta argument"}
			}
		}
	case OpTouch:
		if err = s.parseKeyed(args, 2); err == nil {
			err = s.parseExptime(args[1])
		}
	case OpStats:
		if len(args) >= 1 {
			s.cmd.KeyB = args[0] // sub-statistic: "items", "slabs", ...
		}
	case OpFlushAll:
		for _, a := range args {
			if string(a) == "noreply" {
				s.cmd.Noreply = true
			} else if s.parseExptime(a) != nil {
				return -1, &ClientError{Msg: "bad flush_all delay"}
			}
		}
	case OpVersion:
	case OpVerbosity:
		if len(args) >= 1 {
			lvl, ok := parseIntB(args[0], 64)
			if !ok {
				return -1, &ClientError{Msg: "bad verbosity level"}
			}
			s.cmd.Level = int(lvl)
		}
		s.cmd.Noreply = len(args) == 2 && string(args[1]) == "noreply"
	case OpQuit:
		return -1, ErrQuit
	case OpTrace:
		err = s.parseTrace(args)
	default:
		return -1, &ClientError{Msg: "unknown command " + string(s.fields[0])}
	}
	return -1, err
}

// parseExptime parses an exptime token (flush_all's delay included)
// into the command.
func (s *StreamParser) parseExptime(tok []byte) error {
	exptime, ok := parseIntB(tok, 64)
	if !ok {
		return &ClientError{Msg: "bad exptime"}
	}
	s.cmd.Exptime = exptime
	return nil
}

// parseKeyed parses the "<key> ... [noreply]" shape shared by every
// single-key command: exactly want arguments plus an optional trailing
// noreply. Arguments after the key are left to the caller.
func (s *StreamParser) parseKeyed(args [][]byte, want int) error {
	if len(args) == want+1 && string(args[want]) == "noreply" {
		s.cmd.Noreply = true
		args = args[:want]
	}
	if len(args) != want {
		return &ClientError{Msg: "bad " + opNames[s.cmd.Op] + " argument count"}
	}
	s.cmd.KeyB = args[0]
	return nil
}

// parseStorage parses "<key> <flags> <exptime> <bytes>" (want counts
// the fields: cas has a fifth) and returns the data block's length.
func (s *StreamParser) parseStorage(args [][]byte, want int) (need int, err error) {
	if err := s.parseKeyed(args, want); err != nil {
		return -1, err
	}
	flags, ok := parseUintB(args[1], 32)
	if !ok {
		return -1, &ClientError{Msg: "bad flags"}
	}
	if err := s.parseExptime(args[2]); err != nil {
		return -1, err
	}
	length, ok := parseUintB(args[3], 31)
	if !ok || length > MaxValueBytes {
		return -1, &ClientError{Msg: "bad data length"}
	}
	s.cmd.Flags = uint32(flags)
	return int(length), nil
}

// parseTrace parses "mq_trace <trace> <parent>": the trace ID lands in
// CAS, the parent span ID in Delta. A zero trace ID is rejected — it
// would silently mean "untraced" downstream.
func (s *StreamParser) parseTrace(args [][]byte) error {
	if len(args) != 2 {
		return &ClientError{Msg: "mq_trace requires <trace> <parent>"}
	}
	trace, ok := parseUintB(args[0], 64)
	if !ok || trace == 0 {
		return &ClientError{Msg: "bad mq_trace trace id"}
	}
	parent, ok := parseUintB(args[1], 64)
	if !ok {
		return &ClientError{Msg: "bad mq_trace parent id"}
	}
	s.cmd.CAS, s.cmd.Delta = trace, parent
	return nil
}
