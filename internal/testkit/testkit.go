// Package testkit is the one harness tests use to boot the real
// binaries and to say "nothing leaked": build a main package once per
// test process, start it on a loopback port it picks with its stderr
// captured, read the port back, scrape its admin pages into typed samples,
// signal and reap it, compare goroutines and descriptors with a
// baseline, and read what parked connections cost in heap and stack. Only _test.go files import it; it imports nothing of the
// product, so any package's tests can.
package testkit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// Addr returns the address a process reports it bound: it waits up to
// 10 s for a line of text() holding marker ("listening on ", "admin
// plane on http://") and returns the host:port after it. Start a child
// on 127.0.0.1:0 and read its port back this way (text is Proc.Stderr,
// or CaptureLog for a run function called in-process); a port reserved
// in advance is free for anyone to take before the child binds it.
func Addr(t testing.TB, text func() string, marker string) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		for _, line := range strings.Split(text(), "\n") {
			if _, rest, ok := strings.Cut(line, marker); ok {
				if end := strings.IndexAny(rest, " ,/"); end >= 0 {
					rest = rest[:end]
				}
				return rest
			}
		}
	}
	t.Fatalf("no %q line after 10s in:\n%s", marker, text())
	return ""
}

// CaptureLog sends the standard logger's output to a buffer until the
// test ends and returns the buffer's reader, for Addr.
func CaptureLog(t testing.TB) func() string {
	var (
		mu  sync.Mutex
		buf bytes.Buffer
	)
	prev := log.Writer()
	log.SetOutput(lockedWriter{&mu, &buf})
	t.Cleanup(func() { log.SetOutput(prev) })
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// WaitReady polls probe until it succeeds, and fails the test when it
// still errors after 10 s.
func WaitReady(t testing.TB, what string, probe func() error) {
	t.Helper()
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if err = probe(); err == nil {
			return
		}
	}
	t.Fatalf("%s not ready after 10s: %v", what, err)
}

// Settles records the goroutine and descriptor counts now and returns
// the check that they have come back down to it: closed connections
// unwind their handlers a beat after Close returns, so the check waits
// up to 5 s before it fails the test with every stack. The baseline is
// read once os/signal's loop goroutine is running — the process's first
// signal.Notify starts it for good, so it would otherwise read as a
// leak of the first binary's run() a test calls.
func Settles(t testing.TB) func(what string) {
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGUSR1)
	signal.Stop(warm)
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	return func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			g, f := runtime.NumGoroutine(), openFDs()
			if g <= goroutines && f <= fds {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines / %d fds, baseline %d / %d\n%s",
					what, g, f, goroutines, fds, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}

// RaiseNoFile lifts the soft descriptor limit to the hard limit and
// returns the limit in force, for tests that park many in-process
// connections (two descriptors each).
func RaiseNoFile() uint64 {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return 1024
	}
	if rl.Cur < rl.Max {
		rl.Cur = rl.Max
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
		_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
	return uint64(rl.Cur)
}

// Footprint is the memory this process holds: the live heap and the
// goroutine stacks in use. What n parked connections cost is the
// difference of two readings, over n.
type Footprint struct{ Heap, Stack int64 }

// ReadFootprint forces a garbage collection, then reads the footprint.
func ReadFootprint() Footprint {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Footprint{Heap: int64(ms.HeapAlloc), Stack: int64(ms.StackInuse)}
}

// PerConn returns the heap and stack bytes per connection that n
// connections added since base.
func (f Footprint) PerConn(base Footprint, n int) (heap, stack float64) {
	return float64(f.Heap-base.Heap) / float64(n), float64(f.Stack-base.Stack) / float64(n)
}

// IOWaiting counts the goroutines blocked on network I/O: a
// goroutine-per-connection handler parked in its read is one, so a test
// knows its connections are parked once the count has risen by theirs.
func IOWaiting() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("[IO wait"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// FailFirstAccept wraps l so that its first Accept fails with EMFILE,
// as it does in a process out of descriptors at a connection peak;
// every later call accepts normally.
func FailFirstAccept(l net.Listener) net.Listener { return &failFirst{Listener: l} }

type failFirst struct {
	net.Listener
	failed atomic.Bool
}

func (l *failFirst) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// openFDs counts this process's open descriptors (-1 where /proc does
// not say).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// built holds the binaries of this test process; RemoveBuilt deletes them.
var built struct {
	sync.Mutex
	dir  string
	bins map[string]string
}

// Build compiles the main package in the module-relative directory pkg
// ("cmd/mcbench") and returns the binary's path. A test process builds
// each package once — with -race when the test binary has it, so the
// children are checked too — into a directory the package's TestMain
// removes with RemoveBuilt.
func Build(t testing.TB, pkg string) string {
	t.Helper()
	built.Lock()
	defer built.Unlock()
	if bin, ok := built.bins[pkg]; ok {
		return bin
	}
	if built.dir == "" {
		dir, err := os.MkdirTemp("", "memqlat-testkit-")
		if err != nil {
			t.Fatal(err)
		}
		built.dir, built.bins = dir, map[string]string{}
	}
	bin := filepath.Join(built.dir, filepath.Base(pkg))
	args := []string{"build", "-o", bin}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				args = append(args, "-race")
			}
		}
	}
	// By import path, so it builds from whichever package directory the
	// test runs in.
	if out, err := exec.Command("go", append(args, "memqlat/"+pkg)...).CombinedOutput(); err != nil {
		t.Fatalf("go build memqlat/%s: %v\n%s", pkg, err, out)
	}
	built.bins[pkg] = bin
	return bin
}

// RemoveBuilt deletes what Build compiled; defer it in TestMain.
func RemoveBuilt() {
	built.Lock()
	defer built.Unlock()
	if built.dir != "" {
		_ = os.RemoveAll(built.dir) // a temp dir: nothing to do about a failure
	}
	built.dir, built.bins = "", nil
}

// Proc is a started child process. Its stderr goes to a file (the child
// inherits the descriptor, so capturing costs this process no pipe)
// that Stderr reads back and a failing test logs.
type Proc struct {
	t      testing.TB
	cmd    *exec.Cmd
	errlog string
	exited chan struct{}
	err    error
}

// Start runs bin with args in the background. When the test ends the
// child is killed and reaped if Stop has not done so already, and its
// stderr is logged if the test failed.
func Start(t testing.TB, bin string, args ...string) *Proc {
	t.Helper()
	errlog, err := os.CreateTemp(t.TempDir(), filepath.Base(bin)+".stderr.")
	if err != nil {
		t.Fatal(err)
	}
	defer errlog.Close()
	p := &Proc{t: t, cmd: exec.Command(bin, args...), errlog: errlog.Name(), exited: make(chan struct{})}
	p.cmd.Stderr = errlog
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		_ = p.Stop(syscall.SIGKILL)
		if t.Failed() {
			t.Logf("%s %s stderr:\n%s", filepath.Base(bin), strings.Join(args, " "), p.Stderr())
		}
	})
	return p
}

// Stop sends sig, reaps the child and returns how it exited: nil for
// exit status 0, an *exec.ExitError otherwise. Stopping a child that
// has already exited just reports that exit; one that outlives the
// signal by 10 s is killed and fails the test.
func (p *Proc) Stop(sig syscall.Signal) error {
	p.t.Helper()
	_ = p.cmd.Process.Signal(sig) // an error means it has exited already
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		p.t.Errorf("%s still running 10s after %v; killed", filepath.Base(p.cmd.Path), sig)
	}
	return p.err
}

// Stderr returns what the child has written to its stderr so far.
func (p *Proc) Stderr() string {
	b, err := os.ReadFile(p.errlog)
	if err != nil {
		p.t.Fatal(err)
	}
	return string(b)
}

// Run runs bin to completion and returns its stdout; a non-zero exit
// fails the test with the child's stderr.
func Run(t testing.TB, bin string, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s%s", filepath.Base(bin), strings.Join(args, " "), err, out, stderr.Bytes())
	}
	return string(out)
}

// scraper opens a connection per request, so a scrape leaves neither a
// descriptor nor a keep-alive goroutine behind for Settles to find.
var scraper = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// Get fetches url and returns the body of a 200 answer.
func Get(url string) ([]byte, error) {
	resp, err := scraper.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

// GetJSON decodes a JSON admin page (/healthz, /debug/watch, /trace)
// into v.
func GetJSON(t testing.TB, url string, v any) {
	t.Helper()
	body, err := Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, body)
	}
}

// Sample is one series of a /metrics page: its value and, where the
// line carries an OpenMetrics exemplar, the exemplar's trace_id.
type Sample struct {
	Value   float64
	TraceID string
}

// Metrics is a parsed /metrics page: the declared families by name
// (value: the TYPE) and every series keyed as the page spells it,
// `name{label="value",...}`.
type Metrics struct {
	Families map[string]string
	Series   map[string]Sample
}

// Scrape fetches and parses a Prometheus text page.
func Scrape(t testing.TB, url string) Metrics {
	t.Helper()
	body, err := Get(url)
	if err != nil {
		t.Fatal(err)
	}
	m := Metrics{Families: map[string]string{}, Series: map[string]Sample{}}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			m.Families[f[2]] = f[3]
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		// `series value[ # {trace_id="id"} value [ts]]`; a label value may
		// hold spaces, so a labelled series ends at its brace.
		end := strings.IndexByte(line, ' ')
		if b := strings.IndexByte(line, '{'); b >= 0 && b < end {
			end = b + strings.Index(line[b:], "} ") + 1
		}
		value, exemplar, _ := strings.Cut(line[end+1:], " # ")
		var s Sample
		if s.Value, err = strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("GET %s: bad sample line %q: %v", url, line, err)
		}
		if id, ok := strings.CutPrefix(exemplar, `{trace_id="`); ok {
			s.TraceID, _, _ = strings.Cut(id, `"`)
		}
		m.Series[line[:end]] = s
	}
	return m
}
