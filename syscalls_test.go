package memqlat_test

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"testing"

	"memqlat/internal/client"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
)

// procIO reads the read and write syscalls the process has made so far
// (syscr and syscw of /proc/self/io, every thread counted).
func procIO() (reads, writes int64, err error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	var rchar, wchar int64
	if _, err := fmt.Sscanf(string(b), "rchar: %d\nwchar: %d\nsyscr: %d\nsyscw: %d",
		&rchar, &wchar, &reads, &writes); err != nil {
		return 0, 0, fmt.Errorf("/proc/self/io: %w", err)
	}
	return reads, writes, nil
}

// TestSyscallsPerGet is the syscall-count gate of the request path, at
// C = 1 in one process. A direct Get costs at most 4 reads and 2 writes:
// client and server each write once, and each reads once for the bytes
// and once for the EAGAIN that parks it. Through the proxy to two
// servers a Get costs at most 8 and 4: the proxy's client side and
// upstream side add as much again. So a syscall more per request, such
// as a write split in two, shows here on any machine.
func TestSyscallsPerGet(t *testing.T) {
	if _, _, err := procIO(); err != nil {
		t.Skipf("cannot count syscalls: %v", err)
	}
	const ops = 20000
	const allow = 0.01 // per op, for the gate's own reads of /proc/self/io
	gate := func(t *testing.T, addr string, maxReads, maxWrites float64) {
		cl, err := client.New(client.Options{Servers: []string{addr}})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Set("k", []byte("value"), 0, 0); err != nil {
			t.Fatal(err)
		}
		for range 100 { // warm the connections and their buffers
			if _, err := cl.Get("k"); err != nil {
				t.Fatal(err)
			}
		}
		r0, w0, err := procIO()
		if err != nil {
			t.Fatal(err)
		}
		for range ops {
			if _, err := cl.Get("k"); err != nil {
				t.Fatal(err)
			}
		}
		r1, w1, err := procIO()
		if err != nil {
			t.Fatal(err)
		}
		reads, writes := float64(r1-r0)/ops, float64(w1-w0)/ops
		t.Logf("per get: %.3f reads, %.3f writes", reads, writes)
		if reads > maxReads+allow || writes > maxWrites+allow {
			t.Errorf("a get costs %.3f reads and %.3f writes, want <= %v and %v", reads, writes, maxReads, maxWrites)
		}
	}
	t.Run("direct", func(t *testing.T) {
		_, addr := startServer(t, server.Options{})
		gate(t, addr, 4, 2)
	})
	t.Run("proxied", func(t *testing.T) {
		_, a := startServer(t, server.Options{})
		_, b := startServer(t, server.Options{})
		p, err := proxy.New(proxy.Options{Upstreams: []string{a, b}, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = p.Serve(l) }()
		defer p.Close()
		gate(t, l.Addr().String(), 8, 4)
	})
}
