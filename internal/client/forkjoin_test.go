package client

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/telemetry"
	"memqlat/internal/testkit"
)

// askedKeys returns the keys of one retrieval line: "get k1 k2 ...",
// "gets ..." or "gat <exptime> k1 k2 ...".
func askedKeys(line string) []string {
	fields := strings.Fields(line)
	if fields[0] == "gat" {
		return fields[2:]
	}
	return fields[1:]
}

// answerGets writes a well-formed all-hits reply to one retrieval line:
// every key's value is the key itself.
func answerGets(w net.Conn, line string) {
	var sb strings.Builder
	for _, k := range askedKeys(line) {
		fmt.Fprintf(&sb, "VALUE %s 0 %d\r\n%s\r\n", k, len(k), k)
	}
	sb.WriteString("END\r\n")
	_, _ = w.Write([]byte(sb.String()))
}

// splitByOwner partitions keys by the server the client routes them to.
func splitByOwner(c *Client, keys []string) [][]string {
	out := make([][]string, c.NumServers())
	for _, k := range keys {
		out[c.pickServer(k)] = append(out[c.pickServer(k)], k)
	}
	return out
}

// closedAddr returns a loopback address nothing listens on.
func closedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	return l.Addr().String()
}

// hangingAddr returns a loopback address where a dial neither succeeds
// nor fails until its timeout: a listener that never accepts, its accept
// queue full, so the kernel drops every further SYN.
func hangingAddr(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
	for i := 0; i < 16; i++ {
		nc, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return addr // the queue is full
		}
		t.Cleanup(func() { _ = nc.Close() })
	}
	t.Skip("the accept queue would not fill: no way to make a dial hang here")
	return ""
}

func seqKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%06d", prefix, i)
	}
	return keys
}

// TestReplyDesync pins the rule that a connection is pooled only once
// every reply its request was owed has been read. The fake server
// refuses each connection's first get line and answers every later one:
// a 1200-key read is two pipelined lines, so the refusal of the first
// leaves the second line's reply in flight. Recycling the connection
// there hands those bytes to the next request — Get("other") used to
// come back as key-000744 with a nil error.
func TestReplyDesync(t *testing.T) {
	refuseFirst := func(t *testing.T) string {
		var seen sync.Map // net.Conn -> struct{}: connections past their first get
		return scriptedServer(t, func(w net.Conn, line string) bool {
			if _, later := seen.LoadOrStore(w, struct{}{}); !later {
				_, _ = w.Write([]byte("SERVER_ERROR busy\r\n"))
				return true
			}
			answerGets(w, line)
			return true
		})
	}
	keys := seqKeys("key", 1200)
	if n := len("get") + 744*len(" key-000000") + 2; n > protocol.MaxLineBytes || n+len(" key-000000") <= protocol.MaxLineBytes {
		t.Fatalf("test premise: 744 keys should fill one %d-byte line exactly", protocol.MaxLineBytes)
	}
	var refused *protocol.ServerError

	reads := map[string]func(t *testing.T, c *Client){
		"MultiGet": func(t *testing.T, c *Client) {
			items, err := c.MultiGet(keys)
			if !errors.As(err, &refused) {
				t.Fatalf("MultiGet error = %v, want the server's refusal", err)
			}
			if len(items) != 0 {
				t.Errorf("MultiGet returned %d items of a refused leg", len(items))
			}
		},
		"MultiGetDegraded": func(t *testing.T, c *Client) {
			items, keyErrs := c.MultiGetDegraded(keys)
			if len(items) != 0 || len(keyErrs) != len(keys) {
				t.Fatalf("MultiGetDegraded = %d items, %d key errors; want 0, %d", len(items), len(keyErrs), len(keys))
			}
			if err := keyErrs["key-000744"]; !errors.As(err, &refused) {
				t.Errorf("second line's key carries %v, want the server's refusal", err)
			}
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			c := newClient(t, []string{refuseFirst(t)}, func(o *Options) { o.PoolSize = 1 })
			read(t, c)
			it, err := c.Get("other")
			if err != nil || it.Key != "other" || string(it.Value) != "other" {
				t.Fatalf("Get after the refused read = %+v, %v; want other's own value", it, err)
			}
			if ps, _ := c.PoolStats(0); ps.Dials != 1 || ps.Discards != 0 {
				t.Errorf("a refusal is a protocol outcome, the connection should have been kept: %+v", ps)
			}
		})
	}

	// The other half of the rule: a single-key read does not take a reply
	// that names another key, and does not keep the connection it came on.
	t.Run("Get", func(t *testing.T) {
		addr := scriptedServer(t, func(w net.Conn, line string) bool {
			answerGets(w, "get stale") // whatever was asked
			return true
		})
		c := newClient(t, []string{addr}, func(o *Options) { o.PoolSize = 1 })
		for _, read := range []func() (Item, error){
			func() (Item, error) { return c.Get("fresh") },
			func() (Item, error) { return c.Gets("fresh") },
			func() (Item, error) { return c.GetAndTouch("fresh", time.Minute) },
		} {
			if it, err := read(); err == nil || errors.Is(err, ErrCacheMiss) {
				t.Errorf("read of fresh answered with stale = %+v, %v; want a desync error", it, err)
			}
		}
		if ps, _ := c.PoolStats(0); ps.Idle != 0 || ps.Discards != 3 {
			t.Errorf("out-of-step connections kept: %+v", ps)
		}
	})
}

// TestForkJoinSemantics is the contract of MultiGet/MultiGetDegraded,
// case by case, over two servers.
func TestForkJoinSemantics(t *testing.T) {
	// populate sets every key to its own name and returns the keys by owner.
	populate := func(t *testing.T, c *Client, keys []string) [][]string {
		t.Helper()
		for _, k := range keys {
			if err := c.Set(k, []byte(k), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return splitByOwner(c, keys)
	}
	wantItems := func(t *testing.T, got map[string]Item, keys ...string) {
		t.Helper()
		if len(got) != len(keys) {
			t.Errorf("%d items, want %d", len(got), len(keys))
		}
		for _, k := range keys {
			if it, ok := got[k]; !ok || it.Key != k || string(it.Value) != k {
				t.Errorf("item %q = %+v (present %v)", k, it, ok)
			}
		}
	}

	t.Run("duplicate keys", func(t *testing.T) {
		c := newClient(t, startCluster(t, 2), nil)
		populate(t, c, []string{"a", "b"})
		got, err := c.MultiGet([]string{"a", "b", "a", "a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		wantItems(t, got, "a", "b")
	})

	t.Run("miss in the middle of a leg", func(t *testing.T) {
		c := newClient(t, startCluster(t, 2), nil)
		keys := seqKeys("mid", 24)
		byOwner := splitByOwner(c, keys)
		var absent []string
		for _, g := range byOwner {
			if len(g) < 3 {
				t.Fatalf("degenerate split %v", byOwner)
			}
			absent = append(absent, g[len(g)/2])
		}
		var present []string
		for _, k := range keys {
			if k != absent[0] && k != absent[1] {
				present = append(present, k)
			}
		}
		populate(t, c, present)
		got, keyErrs := c.MultiGetDegraded(keys)
		if len(keyErrs) != 0 {
			t.Fatalf("a miss is not a failure: %v", keyErrs)
		}
		wantItems(t, got, present...)
	})

	t.Run("empty", func(t *testing.T) {
		c := newClient(t, startCluster(t, 2), nil)
		if got, err := c.MultiGet(nil); err != nil || len(got) != 0 {
			t.Errorf("MultiGet(nil) = %v, %v", got, err)
		}
	})

	t.Run("leg wider than a command line", func(t *testing.T) {
		c := newClient(t, startCluster(t, 2), nil)
		keys := seqKeys("wide", 2400)
		for i, g := range populate(t, c, keys) {
			if len(g)*len(" wide-000000") <= protocol.MaxLineBytes {
				t.Fatalf("leg %d has %d keys: fits one line", i, len(g))
			}
		}
		got, err := c.MultiGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		wantItems(t, got, keys...)
	})

	// One leg dies — inside its reply, after a complete VALUE block; at a
	// closed listener; in a dial that hangs for longer than OpTimeout: the
	// healthy leg's items come back, the dead leg's keys are all in the
	// error map, the block it did deliver is not among the items, and the
	// healthy leg's connection is none the worse for it.
	t.Run("partial failure", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			dead func(t *testing.T) string
		}{
			{"mid-reply hangup", func(t *testing.T) string {
				return scriptedServer(t, func(w net.Conn, line string) bool {
					k := strings.Fields(line)[1]
					fmt.Fprintf(w, "VALUE %s 0 %d\r\n%s\r\nVALUE ", k, len(k), k)
					return false
				})
			}},
			{"listener closed", closedAddr},
			{"dial hangs", hangingAddr},
		} {
			for _, deadIdx := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/server %d", tc.name, deadIdx), func(t *testing.T) {
					addrs := startCluster(t, 2)
					live := newClient(t, addrs, nil)
					keys := seqKeys("pf", 16)
					byOwner := populate(t, live, keys)
					addrs[deadIdx] = tc.dead(t)
					c := newClient(t, addrs, func(o *Options) {
						o.DialTimeout = 400 * time.Millisecond
						o.OpTimeout = 300 * time.Millisecond
					})
					t.Cleanup(func() {
						if ps, _ := c.PoolStats(1 - deadIdx); ps.Discards != 0 || ps.Dials != 1 {
							t.Errorf("healthy server's pool: %+v, want one connection dialed and none discarded", ps)
						}
					})

					got, keyErrs := c.MultiGetDegraded(keys)
					wantItems(t, got, byOwner[1-deadIdx]...)
					if len(keyErrs) != len(byOwner[deadIdx]) {
						t.Errorf("key errors = %v, want one per key of %v", keyErrs, byOwner[deadIdx])
					}
					for _, k := range byOwner[deadIdx] {
						if keyErrs[k] == nil {
							t.Errorf("dead leg's key %q carries no error", k)
						}
					}
					got, err := c.MultiGet(keys)
					if err == nil {
						t.Error("MultiGet with a dead leg reported no error")
					}
					wantItems(t, got, byOwner[1-deadIdx]...)
				})
			}
		}
	})

	// An open breaker sheds its leg before a connection is even taken.
	t.Run("breaker-open leg", func(t *testing.T) {
		var lines atomic.Int64
		hangup := scriptedServer(t, func(net.Conn, string) bool {
			lines.Add(1)
			return false
		})
		addrs := []string{hangup, startCluster(t, 1)[0]}
		c := newClient(t, addrs, func(o *Options) {
			o.Resilience = fault.Resilience{BreakerThreshold: 0.5, BreakerWindow: 4, BreakerCooldown: 60}
		})
		keys := seqKeys("br", 16)
		byOwner := splitByOwner(c, keys)
		for i := 0; i < 2; i++ {
			if _, keyErrs := c.MultiGetDegraded(keys); len(keyErrs) != len(byOwner[0]) {
				t.Fatalf("round %d: key errors %v, want server 0's %v", i, keyErrs, byOwner[0])
			}
		}
		if st := c.BreakerState(0); st != "open" {
			t.Fatalf("breaker state = %q after two failed legs, want open", st)
		}
		before := lines.Load()
		ps0, _ := c.PoolStats(0)
		_, keyErrs := c.MultiGetDegraded(keys)
		for _, k := range byOwner[0] {
			if !errors.Is(keyErrs[k], ErrBreakerOpen) {
				t.Errorf("shed key %q carries %v, want ErrBreakerOpen", k, keyErrs[k])
			}
		}
		for _, k := range byOwner[1] {
			if keyErrs[k] != nil {
				t.Errorf("healthy key %q carries %v", k, keyErrs[k])
			}
		}
		if ps, _ := c.PoolStats(0); lines.Load() != before || ps.Dials != ps0.Dials {
			t.Errorf("shed leg touched the wire: %d request lines, %d dials more", lines.Load()-before, ps.Dials-ps0.Dials)
		}
	})

	// Every leg's deadline is OpTimeout from its send — with connections
	// to be had at once, from the start of the call — wherever the stalled
	// leg sits in the read order, and a stall costs the healthy leg
	// nothing.
	t.Run("stalled leg", func(t *testing.T) {
		const opTimeout = 150 * time.Millisecond
		for _, stalledIdx := range []int{0, 1} {
			t.Run(fmt.Sprintf("server %d", stalledIdx), func(t *testing.T) {
				release := make(chan struct{})
				t.Cleanup(func() { close(release) })
				addrs := startCluster(t, 2)
				live := newClient(t, addrs, nil)
				keys := seqKeys("st", 16)
				byOwner := populate(t, live, keys)
				addrs[stalledIdx] = scriptedServer(t, func(net.Conn, string) bool {
					<-release
					return false
				})
				c := newClient(t, addrs, func(o *Options) { o.OpTimeout = opTimeout })

				began := time.Now()
				got, keyErrs := c.MultiGetDegraded(keys)
				if took := time.Since(began); took < opTimeout || took > 2*opTimeout {
					t.Errorf("call took %v, want about OpTimeout = %v", took, opTimeout)
				}
				wantItems(t, got, byOwner[1-stalledIdx]...)
				for _, k := range byOwner[stalledIdx] {
					if !errors.Is(keyErrs[k], os.ErrDeadlineExceeded) {
						t.Errorf("stalled key %q carries %v, want a timeout", k, keyErrs[k])
					}
				}
				if len(keyErrs) != len(byOwner[stalledIdx]) {
					t.Errorf("key errors %v, want the stalled leg's keys only", keyErrs)
				}
			})
		}
	})

	// Legs that fail retryably are re-issued after the join, together: one
	// backoff for the pass, one more attempt at each server, and nothing
	// kept of the attempts that failed.
	t.Run("retried legs", func(t *testing.T) {
		var gets, fails [2]atomic.Int64 // per server: attempts seen, attempts to fail
		flaky := func(idx int) string {
			return scriptedServer(t, func(w net.Conn, line string) bool {
				if !strings.HasPrefix(line, "get ") {
					return true // the trace header: it gets no reply
				}
				if gets[idx].Add(1) <= fails[idx].Load() {
					k := strings.Fields(line)[1]
					fmt.Fprintf(w, "VALUE %s 0 5\r\nstale\r\n", k)
					return false
				}
				answerGets(w, line)
				return true
			})
		}
		fails[0].Store(1)
		fails[1].Store(1)
		col, tr := telemetry.NewCollector(), otrace.New(otrace.Options{})
		c := newClient(t, []string{flaky(0), flaky(1)}, func(o *Options) {
			o.Resilience = fault.Resilience{Retries: 1, RetryBackoff: 1e-3}
			o.Recorder = col
			o.Tracer = tr
		})
		keys := seqKeys("rt", 16)
		got, keyErrs := c.MultiGetDegraded(keys)
		if len(keyErrs) != 0 {
			t.Fatalf("retry did not recover the legs: %v", keyErrs)
		}
		wantItems(t, got, keys...)
		if kinds := byKind(tr.Snapshot()); len(kinds["client/leg"]) != 2 || len(kinds["client/rpc"]) != 4 {
			t.Errorf("spans: %d legs, %d rpcs; want one leg and two attempts per server", len(kinds["client/leg"]), len(kinds["client/rpc"]))
		}
		if a, b := gets[0].Load(), gets[1].Load(); a != 2 || b != 2 {
			t.Errorf("flaky servers saw %d and %d attempts, want 2 each", a, b)
		}
		if n := col.Breakdown()[telemetry.StageRetry].Count; n != 1 {
			t.Errorf("%d backoffs for one retry pass, want 1", n)
		}
		// Retries is the bound: a leg that keeps failing is not asked a
		// third time, and its keys carry the error.
		gets[0].Store(0)
		gets[1].Store(0)
		fails[1].Store(5)
		got, keyErrs = c.MultiGetDegraded(keys)
		byOwner := splitByOwner(c, keys)
		wantItems(t, got, byOwner[0]...)
		if len(keyErrs) != len(byOwner[1]) {
			t.Errorf("key errors %v, want those of the leg that failed twice", keyErrs)
		}
		if a, b := gets[0].Load(), gets[1].Load(); a != 2 || b != 2 {
			t.Errorf("second call: servers saw %d and %d attempts, want 2 each", a, b)
		}
	})

	// A single-key read is a fork-join of one leg: Get, Gets and
	// GetAndTouch fail, shed, time out, retry and recycle connections as
	// the legs above do — except that GetAndTouch, which moves the expiry,
	// is never asked twice.
	for _, rd := range []struct {
		name    string
		read    func(c *Client, key string) (Item, error)
		retried bool
	}{
		{"Get", func(c *Client, key string) (Item, error) { return c.Get(key) }, true},
		{"Gets", func(c *Client, key string) (Item, error) { return c.Gets(key) }, true},
		{"GetAndTouch", func(c *Client, key string) (Item, error) { return c.GetAndTouch(key, time.Minute) }, false},
	} {
		t.Run("one leg/"+rd.name, func(t *testing.T) {
			// fails reads "k" and wants a failure that is not a miss.
			fails := func(t *testing.T, c *Client) error {
				t.Helper()
				it, err := rd.read(c, "k")
				if err == nil || errors.Is(err, ErrCacheMiss) {
					t.Fatalf("read = %+v, %v; want a failure", it, err)
				}
				return err
			}
			t.Run("mid-reply hangup", func(t *testing.T) {
				c := newClient(t, []string{scriptedServer(t, func(w net.Conn, _ string) bool {
					_, _ = w.Write([]byte("VALUE k 0 1\r\nk\r\nVALUE "))
					return false
				})}, nil)
				fails(t, c)
				if ps, _ := c.PoolStats(0); ps.Dials != 1 || ps.Discards != 1 || ps.Idle != 0 {
					t.Errorf("pool after a reply cut short: %+v, want the connection discarded", ps)
				}
			})
			t.Run("listener closed", func(t *testing.T) {
				c := newClient(t, []string{closedAddr(t)}, nil)
				fails(t, c)
				if ps, _ := c.PoolStats(0); ps.Dials != 0 || ps.Discards != 0 {
					t.Errorf("pool after a refused dial: %+v", ps)
				}
			})
			t.Run("dial hangs", func(t *testing.T) {
				const dialTimeout, opTimeout = 400 * time.Millisecond, 100 * time.Millisecond
				c := newClient(t, []string{hangingAddr(t)}, func(o *Options) {
					o.DialTimeout, o.OpTimeout = dialTimeout, opTimeout
				})
				began := time.Now()
				fails(t, c)
				if took := time.Since(began); took < dialTimeout || took > 2*dialTimeout {
					t.Errorf("read took %v, want about DialTimeout = %v: a dial runs on no leg's OpTimeout", took, dialTimeout)
				}
			})
			t.Run("breaker open", func(t *testing.T) {
				var lines atomic.Int64
				c := newClient(t, []string{scriptedServer(t, func(net.Conn, string) bool {
					lines.Add(1)
					return false
				})}, func(o *Options) {
					o.Resilience = fault.Resilience{BreakerThreshold: 0.5, BreakerWindow: 4, BreakerCooldown: 60}
				})
				fails(t, c)
				fails(t, c)
				if st := c.BreakerState(0); st != "open" {
					t.Fatalf("breaker state = %q after two failed reads, want open", st)
				}
				before := lines.Load()
				ps0, _ := c.PoolStats(0)
				if err := fails(t, c); !errors.Is(err, ErrBreakerOpen) {
					t.Errorf("shed read = %v, want ErrBreakerOpen", err)
				}
				if ps, _ := c.PoolStats(0); lines.Load() != before || ps.Dials != ps0.Dials {
					t.Errorf("shed read touched the wire: %d request lines, %d dials more", lines.Load()-before, ps.Dials-ps0.Dials)
				}
			})
			t.Run("stalled", func(t *testing.T) {
				const opTimeout = 150 * time.Millisecond
				release := make(chan struct{})
				t.Cleanup(func() { close(release) })
				c := newClient(t, []string{scriptedServer(t, func(net.Conn, string) bool {
					<-release
					return false
				})}, func(o *Options) { o.OpTimeout = opTimeout })
				began := time.Now()
				if err := fails(t, c); !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Errorf("stalled read = %v, want a timeout", err)
				}
				if took := time.Since(began); took < opTimeout || took > 2*opTimeout {
					t.Errorf("read took %v, want about OpTimeout = %v", took, opTimeout)
				}
				if ps, _ := c.PoolStats(0); ps.Discards != 1 || ps.Idle != 0 {
					t.Errorf("pool after a timeout: %+v, want the connection discarded", ps)
				}
			})
			t.Run("flaky", func(t *testing.T) {
				var reads atomic.Int64
				flaky := scriptedServer(t, func(w net.Conn, line string) bool {
					if strings.HasPrefix(line, "mq_trace ") {
						return true // the trace header: it gets no reply
					}
					if reads.Add(1) == 1 {
						_, _ = w.Write([]byte("VALUE k 0 5\r\nstale\r\n"))
						return false
					}
					answerGets(w, line)
					return true
				})
				col, tr := telemetry.NewCollector(), otrace.New(otrace.Options{})
				c := newClient(t, []string{flaky}, func(o *Options) {
					o.Resilience = fault.Resilience{Retries: 1, RetryBackoff: 1e-3}
					o.Recorder = col
					o.Tracer = tr
				})
				it, err := rd.read(c, "k")
				backoffs := col.Breakdown()[telemetry.StageRetry].Count
				if !rd.retried {
					if err == nil || reads.Load() != 1 || backoffs != 0 {
						t.Errorf("read = %+v, %v after %d attempts and %d backoffs; want the first failure, not retried", it, err, reads.Load(), backoffs)
					}
					return
				}
				if err != nil || string(it.Value) != "k" {
					t.Fatalf("retried read = %+v, %v; want the second attempt's value", it, err)
				}
				if reads.Load() != 2 || backoffs != 1 {
					t.Errorf("%d attempts, %d backoffs; want 2 and 1", reads.Load(), backoffs)
				}
				kinds := byKind(tr.Snapshot())
				if roots, rpcs := kinds["client/"+strings.ToLower(rd.name)], kinds["client/rpc"]; len(roots) != 1 || len(rpcs) != 2 ||
					rpcs[0].Parent != roots[0].ID || rpcs[1].Parent != roots[0].ID {
					t.Errorf("spans: roots %+v, rpcs %+v; want one root with an rpc per attempt", roots, rpcs)
				}
				if ps, _ := c.PoolStats(0); ps.Dials != 2 || ps.Discards != 1 || ps.Idle != 1 {
					t.Errorf("pool after one failed and one good attempt: %+v", ps)
				}
			})
		})
	}

	// With hedging on every leg is a hedged read on a goroutine of its
	// own: a leg whose primary stalls is saved by its hedge while the
	// other leg proceeds, and a dead leg still fails only its own keys.
	t.Run("hedged legs", func(t *testing.T) {
		var gets atomic.Int64
		slowFirst := scriptedServer(t, func(w net.Conn, line string) bool {
			if gets.Add(1) == 1 {
				time.Sleep(400 * time.Millisecond) // the stalled primary
			}
			answerGets(w, line)
			return true
		})
		addrs := []string{slowFirst, startCluster(t, 1)[0]}
		hedged := func(o *Options) {
			o.Resilience = fault.Resilience{HedgeDelay: 5e-3}
			o.DialTimeout = 500 * time.Millisecond
		}
		c := newClient(t, addrs, hedged)
		keys := seqKeys("hg", 16)
		byOwner := splitByOwner(c, keys)
		for _, k := range byOwner[1] {
			if err := c.Set(k, []byte(k), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		began := time.Now()
		got, keyErrs := c.MultiGetDegraded(keys)
		if took := time.Since(began); took > 200*time.Millisecond {
			t.Errorf("hedged fork-join took %v despite the fast second attempt", took)
		}
		if len(keyErrs) != 0 {
			t.Fatalf("key errors %v", keyErrs)
		}
		wantItems(t, got, keys...)

		c = newClient(t, []string{closedAddr(t), addrs[1]}, hedged)
		got, keyErrs = c.MultiGetDegraded(keys)
		wantItems(t, got, byOwner[1]...)
		if len(keyErrs) != len(byOwner[0]) {
			t.Errorf("key errors %v, want the dead leg's keys %v", keyErrs, byOwner[0])
		}
	})

	t.Run("traced", func(t *testing.T) {
		tr := otrace.New(otrace.Options{})
		c := newClient(t, startTracedCluster(t, 2, tr), func(o *Options) { o.Tracer = tr })
		keys := seqKeys("tr", 16)
		byOwner := populate(t, c, keys)
		before := len(tr.Snapshot())
		if _, err := c.MultiGet(keys); err != nil {
			t.Fatal(err)
		}
		kinds := byKind(tr.Snapshot()[before:])
		roots := kinds["client/multiget"]
		if len(roots) != 1 || roots[0].Parent != 0 {
			t.Fatalf("multiget roots = %+v, want one parentless", roots)
		}
		legs, rpcs := kinds["client/leg"], kinds["client/rpc"]
		if len(legs) != 2 || len(rpcs) != 2 || len(kinds["server/handle"]) != 2 {
			t.Fatalf("spans: %d legs, %d rpcs, %d server handles; want 2 each", len(legs), len(rpcs), len(kinds["server/handle"]))
		}
		legOf := map[uint64]otrace.Span{}
		for _, leg := range legs {
			if leg.Parent != roots[0].ID || leg.Trace != roots[0].Trace || len(byOwner[leg.Server]) == 0 {
				t.Errorf("leg %+v is not a child of the root for a contacted server", leg)
			}
			if leg.Start < roots[0].Start || leg.Start+leg.Dur > roots[0].Start+roots[0].Dur {
				t.Errorf("leg %+v lies outside its root %+v", leg, roots[0])
			}
			legOf[leg.ID] = leg
		}
		if legs[0].Server == legs[1].Server {
			t.Errorf("two legs for server %d", legs[0].Server)
		}
		for _, rpc := range rpcs {
			if leg, ok := legOf[rpc.Parent]; !ok || leg.Server != rpc.Server {
				t.Errorf("rpc %+v is not under its server's leg", rpc)
			}
			delete(legOf, rpc.Parent)
		}
	})
}

// TestForkJoinCost holds the unhedged fork-join to its budget: it spawns
// no goroutine and allocates for its results only — the result map and
// one value slab per leg; for a single key, the value.
func TestForkJoinCost(t *testing.T) {
	c := newClient(t, startCluster(t, 2), nil)
	keys := seqKeys("cost", 32)
	for _, k := range keys {
		if err := c.Set(k, make([]byte, 100), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if items, err := c.MultiGet(keys); err != nil || len(items) != len(keys) {
			t.Fatalf("MultiGet = %d items, %v", len(items), err)
		}
	}
	read() // dial, size the scratch
	if allocs := testing.AllocsPerRun(200, read); allocs > 8 {
		t.Errorf("32-key MultiGet over 2 servers: %.0f allocs per call, want at most 8", allocs)
	}
	get := func() {
		if _, err := c.Get(keys[0]); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, get); allocs > 2 {
		t.Errorf("single-key Get: %.0f allocs per call, want at most 2", allocs)
	}
	// Goroutines of earlier tests' servers may still be winding down, so
	// the count may fall; a call that spawned would raise it, and one that
	// left a goroutine or a descriptor behind fails the baseline (the pool
	// is dialled by now).
	settled := testkit.Settles(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		read()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("call %d: %d goroutines, %d before it", i, n, before)
		} else {
			before = n
		}
	}
	settled("1000 MultiGets")
}
