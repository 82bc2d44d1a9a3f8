package proxy

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"memqlat/internal/protocol"
)

// FuzzProxyFrame fuzzes the proxy's forwarding contract in both
// directions. Downstream: every command the parser accepts must yield a
// captured wire frame that re-parses to an equivalent command — a frame
// that parses differently would make the proxy forward a request the
// upstream interprets differently than the downstream sent it. Upstream:
// the same bytes read as a reply must relay verbatim, and agree with the
// client-side reader on what a whole reply and an error reply are (see
// relayContract).
func FuzzProxyFrame(f *testing.F) {
	f.Add([]byte("get a b c\r\n"))
	f.Add([]byte("gets one\r\n"))
	f.Add([]byte("set k 7 0 3\r\nabc\r\n"))
	f.Add([]byte("set k 0 0 2 noreply\r\nhi\r\nget k\r\n"))
	f.Add([]byte("cas k 0 0 1 99\r\nx\r\n"))
	f.Add([]byte("delete gone noreply\r\n"))
	f.Add([]byte("incr n 5\r\ndecr n 2\r\n"))
	f.Add([]byte("touch k 30\r\n"))
	f.Add([]byte("gat 60 a b\r\ngats 1 z\r\n"))
	f.Add([]byte("flush_all 10\r\nversion\r\nverbosity 2\r\n"))
	f.Add([]byte("get a\nget b\n"))
	f.Add([]byte("VALUE a 1 3\r\nabc\r\nVALUE b 0 1 42\r\nx\r\nEND\r\n"))
	f.Add([]byte("VALUE a 0\r\nEND\r\n"))                  // truncated VALUE header
	f.Add([]byte("VALUE a 0 3\r\nab"))                     // truncated data block
	f.Add([]byte("VALUE a 0 1048577\r\nx\r\nEND\r\n"))     // oversize length
	f.Add([]byte("VALUE a 0 3\r\nabc\r\nSTORED\r\n"))      // missing END
	f.Add([]byte("VALUE a 0 3\r\nabc\r\n"))                // missing END, stream ends
	f.Add([]byte("VALUE a 0 3\r\nabcXYEND\r\n"))           // data block not CRLF-closed
	f.Add([]byte("SERVER_ERROR out of memory\r\nEND\r\n")) // error line closes the reply
	// Data blocks longer than the upstream reader: whole, cut short, and
	// not CRLF-closed.
	long := bytes.Repeat([]byte("x"), 5000)
	f.Add(append(append([]byte("VALUE a 0 5000\r\n"), long...), "\r\nVALUE b 0 1\r\ny\r\nEND\r\n"...))
	f.Add(append([]byte("VALUE a 0 5000\r\n"), long[:4500]...))
	f.Add(append(append([]byte("VALUE a 0 5000\r\n"), long...), "XYEND\r\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		relayContract(t, data)
		p := protocol.NewParser(bufio.NewReader(bytes.NewReader(data)))
		p.CaptureFrames(true)
		for i := 0; i < 64; i++ {
			cmd, err := p.Next()
			if err != nil {
				var ce *protocol.ClientError
				if errors.As(err, &ce) {
					// Malformed command: the stream stays parseable.
					continue
				}
				return // quit / EOF / i/o
			}
			frame := p.Frame()
			if len(frame) < 2 || frame[len(frame)-2] != '\r' || frame[len(frame)-1] != '\n' {
				t.Fatalf("frame %q not CRLF-terminated", frame)
			}
			rp := protocol.NewParser(bufio.NewReader(bytes.NewReader(frame)))
			cmd2, err := rp.Next()
			if err != nil {
				t.Fatalf("frame %q does not re-parse: %v", frame, err)
			}
			if cmd.Op != cmd2.Op || cmd.Noreply != cmd2.Noreply ||
				cmd.Flags != cmd2.Flags || cmd.Exptime != cmd2.Exptime ||
				cmd.CAS != cmd2.CAS || cmd.Delta != cmd2.Delta ||
				!bytes.Equal(cmd.KeyB, cmd2.KeyB) || !bytes.Equal(cmd.Value, cmd2.Value) {
				t.Fatalf("frame %q re-parsed to a different command", frame)
			}
			if len(cmd.KeyList) != len(cmd2.KeyList) {
				t.Fatalf("frame %q re-parsed with %d keys, want %d",
					frame, len(cmd2.KeyList), len(cmd.KeyList))
			}
			for j := range cmd.KeyList {
				if !bytes.Equal(cmd.KeyList[j], cmd2.KeyList[j]) {
					t.Fatalf("frame %q re-parsed with key %q, want %q",
						frame, cmd2.KeyList[j], cmd.KeyList[j])
				}
			}
		}
	})
}

// relayContract reads data as an upstream retrieval reply the way the
// proxy does, through a leg's readReply with the upstream reader at its
// real size, and checks it against the client-side reader. A passthrough
// (a one-leg lines slot) and a race leg relay the same bytes: on a whole
// reply a prefix of the stream byte for byte, ending where the client
// reader stops; on a broken stream serverErrorLine. A split part keeps
// what they relay minus the terminal line. An error reply must be one
// for the relay and the client alike.
func relayContract(t *testing.T, data []byte) {
	read := func(j join) ([]byte, bool, error) {
		leg := &pending{frames: 1, slot: &pending{join: j, kind: kindRetrieval}}
		fail, err := (&uconn{r: bufio.NewReader(bytes.NewReader(data))}).readReply(leg)
		return leg.buf, fail, err
	}
	relayed, fail, err := read(joinLines)
	if err != nil {
		if string(relayed) != serverErrorLine || !fail {
			t.Fatalf("broken stream %q (%v) relays %q fail=%v, want %q", data, err, relayed, fail, serverErrorLine)
		}
	} else if !bytes.HasPrefix(data, relayed) {
		t.Fatalf("relay wrote %q, not a prefix of the stream %q", relayed, data)
	}
	for _, j := range []join{joinRace, joinSplit} {
		legBuf, legFail, legErr := read(j)
		want := relayed
		if j == joinSplit && err == nil && bytes.HasPrefix(relayed, legBuf) {
			// A part drops the terminal line: the relay holds one END or
			// error line more.
			term := relayed[len(legBuf):]
			rep, _ := protocol.ScanReply(bufio.NewReader(bytes.NewReader(term)))
			if len(rep.Line) == len(term) && (rep.Kind == protocol.ReplyEnd || rep.Kind == protocol.ReplyError) {
				want = legBuf
			}
		}
		if !bytes.Equal(legBuf, want) || legErr != err || legFail != fail {
			t.Fatalf("leg (join %d) of %q reads %q fail=%v err=%v, want %q fail=%v err=%v",
				j, data, legBuf, legFail, legErr, want, fail, err)
		}
	}
	src := bytes.NewReader(data)
	br := bufio.NewReader(src)
	items, rerr := protocol.ReadRetrieval(br)
	var se *protocol.ServerError
	switch {
	case rerr == nil:
		if err != nil || fail {
			t.Fatalf("client reads %d items from %q, relay says fail=%v err=%v", len(items), data, fail, err)
		}
		if used := len(data) - src.Len() - br.Buffered(); used != len(relayed) {
			t.Fatalf("relay wrote %d bytes of %q, the client read a reply of %d", len(relayed), data, used)
		}
		again, err := protocol.ReadRetrieval(bufio.NewReader(bytes.NewReader(relayed)))
		if err != nil || len(again) != len(items) {
			t.Fatalf("relayed reply %q reads back as %d items (%v), want %d", relayed, len(again), err, len(items))
		}
	case errors.As(rerr, &se):
		if err != nil || !fail {
			t.Fatalf("client reads error reply %q, relay says fail=%v err=%v", se.Line, fail, err)
		}
	}
}
