package main

import (
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"testing"
	"time"

	"memqlat/internal/client"
)

// reservePort returns a loopback address that was free a moment ago.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// goroutineBaseline counts goroutines once os/signal's loop goroutine is
// running: the process's first signal.Notify starts it for good, so it
// would otherwise read as a leak of the first run() a test makes.
func goroutineBaseline() int {
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGUSR1)
	signal.Stop(warm)
	return runtime.NumGoroutine()
}

// TestRunDrainsOnSIGTERM: the binary serves a set/get, and SIGTERM —
// arriving while the client still holds a pooled connection — makes run
// return nil with every goroutine it started gone.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	baseline := goroutineBaseline()
	addr := reservePort(t)
	done := make(chan error, 1)
	// -slo arms the watchdog, whose window goroutine run has to stop too.
	go func() {
		done <- run([]string{"-addr", addr, "-service-rate", "5000", "-slo", "lambda=100,mus=5000,window=20ms"})
	}()

	cl, err := client.New(client.Options{Servers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err = cl.Set("k", []byte("v"), 0, 0); err == nil {
			break
		}
		select {
		case rerr := <-done:
			t.Fatalf("run returned before serving: %v", rerr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never answered a set: %v", err)
		}
	}
	if it, err := cl.Get("k"); err != nil || string(it.Value) != "v" {
		t.Fatalf("get = %q, %v", it.Value, err)
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
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after drain, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestRunRejectsFlags: the shaped path has one service channel and no
// flag to say otherwise, and the flags that need a tracer still say so.
func TestRunRejectsFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-service-channels", "2"},
		{"-slow", "10ms"},
		{"-exemplars"},
	} {
		args = append([]string{"-addr", reservePort(t)}, args...)
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("run %v returned nil, want an error", args)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %v is serving, want a flag error", args)
		}
	}
}
