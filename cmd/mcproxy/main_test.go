package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/server"
	"memqlat/internal/testkit"
)

// startUpstream serves one in-process memcached server for the proxy to
// route to.
func startUpstream(t *testing.T) string {
	t.Helper()
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Cache: c, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

// TestRunDrainsOnSIGTERM: the binary relays a set/get to its upstream,
// and SIGTERM — arriving while the client still holds a pooled
// connection and the proxy its upstream ones — makes run return nil
// with every goroutine it started (and every upstream handler) gone.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	upstream := startUpstream(t)
	settled := testkit.Settles(t)

	logged := testkit.CaptureLog(t)
	done := make(chan error, 1)
	// -slo arms the watchdog, whose window goroutine run has to stop too.
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-servers", upstream, "-slo", "lambda=2000,mus=8000,window=20ms"})
	}()

	cl, err := client.New(client.Options{Servers: []string{testkit.Addr(t, logged, "listening on ")}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	testkit.WaitReady(t, "proxy", func() error {
		select {
		case rerr := <-done:
			t.Fatalf("run returned before serving: %v", rerr)
		default:
		}
		return cl.Set("k", []byte("v"), 0, 0)
	})
	if it, err := cl.Get("k"); err != nil || string(it.Value) != "v" {
		t.Fatalf("get through the proxy = %q, %v", it.Value, err)
	}

	// run registered its handler before it started serving, so the
	// signal reaches it and not the default action.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return within 5s of SIGTERM")
	}
	_ = cl.Close()
	settled("after drain")
}

// TestRunDrainsWithUnreadUpstream: SIGTERM arriving while a client's
// pipelined 64 KiB sets have filled the sockets to an upstream that reads
// nothing — so a write to it is blocked under that upstream's lock —
// still makes run return nil within 5 s, with nothing it started left.
func TestRunDrainsWithUnreadUpstream(t *testing.T) {
	// The upstream listens and never accepts: the kernel completes the
	// proxy's connection and buffers what it sends until the window
	// fills, and nothing reads it.
	deaf, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = deaf.Close() }()
	settled := testkit.Settles(t)

	logged := testkit.CaptureLog(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-servers", deaf.Addr().String(), "-upstream-conns", "1"})
	}()
	nc, err := net.Dial("tcp", testkit.Addr(t, logged, "listening on "))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	set := []byte("set big 0 0 65536\r\n" + strings.Repeat("v", 65536) + "\r\n")
	var sent atomic.Int64
	go func() { // until the proxy hangs up
		for {
			n, err := nc.Write(set)
			if sent.Add(int64(n)); err != nil {
				return
			}
		}
	}()
	last := int64(-1)
	testkit.WaitReady(t, "the client's sets wedging the upstream", func() error {
		n := sent.Load()
		if n == 0 || n != last {
			last = n
			time.Sleep(200 * time.Millisecond)
			return fmt.Errorf("%d bytes sent", n)
		}
		return nil
	})

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return within 5s of SIGTERM")
	}
	_ = nc.Close()
	settled("after drain")
}
