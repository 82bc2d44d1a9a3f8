package main

import (
	"os"
	"syscall"
	"testing"
	"time"

	"memqlat/internal/client"
	"memqlat/internal/testkit"
)

// TestRunDrainsOnSIGTERM: the binary serves a set/get, and SIGTERM —
// arriving while the client still holds a pooled connection — makes run
// return nil with every goroutine it started gone.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	settled := testkit.Settles(t)
	logged := testkit.CaptureLog(t)
	done := make(chan error, 1)
	// -slo arms the watchdog, whose window goroutine run has to stop too.
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-service-rate", "5000", "-slo", "lambda=100,mus=5000,window=20ms"})
	}()

	cl, err := client.New(client.Options{Servers: []string{testkit.Addr(t, logged, "listening on ")}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	testkit.WaitReady(t, "server", func() error {
		select {
		case rerr := <-done:
			t.Fatalf("run returned before serving: %v", rerr)
		default:
		}
		return cl.Set("k", []byte("v"), 0, 0)
	})
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
	settled("after drain")
}

// TestRunRejectsFlags: the shaped path has one service channel and no
// flag to say otherwise, and the flags that need a tracer still say so.
func TestRunRejectsFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-service-channels", "2"},
		{"-slow", "10ms"},
		{"-exemplars"},
	} {
		args = append([]string{"-addr", "127.0.0.1:0"}, args...)
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
