package protocol

import "strconv"

// Request encoders: the one place a command line is written. Each
// appends a complete frame to dst and returns the extended slice, so
// callers build requests in a buffer they reuse and allocate nothing.
// They encode what they are given; key validity (no whitespace or
// control bytes, at most 250 bytes) is the caller's contract, as it is
// for every memcached client.

// AppendRetrieval appends one retrieval line — op's verb (get, gets,
// gat, gats), the gat family's exptime, then keys — and reports how many
// keys it took: as many as keep the line within MaxLineBytes, and always
// at least one. A caller left with keys pipelines another line for
// them; the replies come back in order.
func AppendRetrieval[K string | []byte](dst []byte, op Op, exptime int64, keys []K) ([]byte, int) {
	start := len(dst)
	dst = append(dst, opNames[op]...)
	if op == OpGat || op == OpGats {
		dst = strconv.AppendInt(append(dst, ' '), exptime, 10)
	}
	n := 0
	for n < len(keys) && (n == 0 || len(dst)-start+1+len(keys[n])+len(crlf) <= MaxLineBytes) {
		dst = append(append(dst, ' '), keys[n]...)
		n++
	}
	return append(dst, crlf...), n
}

// AppendStorage appends a storage frame (set, add, replace, append,
// prepend, or cas with its token): command line, data block, CRLF.
func AppendStorage(dst []byte, op Op, key string, flags uint32, exptime int64, value []byte, cas uint64) []byte {
	dst = appendVerbKey(dst, op, key)
	dst = strconv.AppendUint(append(dst, ' '), uint64(flags), 10)
	dst = strconv.AppendInt(append(dst, ' '), exptime, 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(len(value)), 10)
	if op == OpCas {
		dst = strconv.AppendUint(append(dst, ' '), cas, 10)
	}
	dst = append(dst, crlf...)
	dst = append(dst, value...)
	return append(dst, crlf...)
}

// AppendIncrDecr appends "incr|decr <key> <delta>".
func AppendIncrDecr(dst []byte, op Op, key string, delta uint64) []byte {
	dst = strconv.AppendUint(append(appendVerbKey(dst, op, key), ' '), delta, 10)
	return append(dst, crlf...)
}

// AppendTrace appends the "mq_trace <trace> <parent>" header that
// scopes the next command on the connection (see OpTrace).
func AppendTrace(dst []byte, trace, parent uint64) []byte {
	dst = strconv.AppendUint(append(append(dst, opNames[OpTrace]...), ' '), trace, 10)
	dst = strconv.AppendUint(append(dst, ' '), parent, 10)
	return append(dst, crlf...)
}

// AppendBare appends a command that is its verb alone: stats,
// flush_all, version, quit.
func AppendBare(dst []byte, op Op) []byte {
	return append(append(dst, opNames[op]...), crlf...)
}

func appendVerbKey(dst []byte, op Op, key string) []byte {
	return append(append(append(dst, opNames[op]...), ' '), key...)
}
