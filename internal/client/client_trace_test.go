package client

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"testing"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/otrace"
	"memqlat/internal/server"
)

// startTracedCluster launches n servers sharing one tracer, numbered
// 0..n-1 — the live plane's wiring.
func startTracedCluster(t *testing.T, n int, tr *otrace.Tracer) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		c, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Options{
			Cache: c, Logger: log.New(io.Discard, "", 0), Tracer: tr, ID: i,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(l)
		}()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
	}
	return addrs
}

// byKind indexes a span snapshot by "comp/name".
func byKind(spans []otrace.Span) map[string][]otrace.Span {
	out := make(map[string][]otrace.Span)
	for _, sp := range spans {
		out[sp.Comp+"/"+sp.Name] = append(out[sp.Comp+"/"+sp.Name], sp)
	}
	return out
}

func TestTraceSpansEndToEnd(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	addrs := startTracedCluster(t, 2, tr)
	c := newClient(t, addrs, func(o *Options) { o.Tracer = tr })

	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	kinds := byKind(tr.Snapshot())
	roots := kinds["client/get"]
	if len(roots) != 1 {
		t.Fatalf("client/get spans = %d, want 1 (kinds: %v)", len(roots), kinds)
	}
	root := roots[0]
	if root.Parent != 0 || root.Trace == 0 {
		t.Errorf("root span = %+v, want fresh parentless trace", root)
	}
	rpcs := kinds["client/rpc"]
	if len(rpcs) != 1 || rpcs[0].Parent != root.ID || rpcs[0].Trace != root.Trace {
		t.Errorf("client/rpc spans = %+v, want one child of %d", rpcs, root.ID)
	}
	// The server's handle span joined the same trace over the wire.
	handles := kinds["server/handle"]
	if len(handles) != 1 || handles[0].Trace != root.Trace || handles[0].Parent != rpcs[0].ID {
		t.Errorf("server/handle spans = %+v, want one under rpc %d trace %d",
			handles, rpcs[0].ID, root.Trace)
	}
	if len(kinds["server/service"]) != 1 {
		t.Errorf("server/service spans = %d, want 1", len(kinds["server/service"]))
	}
}

func TestTraceMultiGetForkJoin(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	addrs := startTracedCluster(t, 2, tr)
	c := newClient(t, addrs, func(o *Options) { o.Tracer = tr })

	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("fj-%d", i)
		if err := c.Set(keys[i], []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MultiGet(keys); err != nil {
		t.Fatal(err)
	}
	kinds := byKind(tr.Snapshot())
	roots := kinds["client/multiget"]
	if len(roots) != 1 {
		t.Fatalf("client/multiget spans = %d, want 1", len(roots))
	}
	legs := kinds["client/leg"]
	if len(legs) == 0 || len(legs) > 2 {
		t.Fatalf("client/leg spans = %d, want 1..2 (one per contacted server)", len(legs))
	}
	seen := map[int]bool{}
	for _, leg := range legs {
		if leg.Parent != roots[0].ID || leg.Trace != roots[0].Trace {
			t.Errorf("leg %+v not parented under multiget root", leg)
		}
		if seen[leg.Server] {
			t.Errorf("duplicate leg for server %d", leg.Server)
		}
		seen[leg.Server] = true
	}
	if got := len(kinds["server/handle"]); got != len(legs) {
		t.Errorf("server/handle spans = %d, want %d (one per leg)", got, len(legs))
	}
}

func TestTraceGetThroughMissPath(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	addrs := startTracedCluster(t, 1, tr)
	db, err := backend.New(backend.Options{MuD: 1e6, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	c := newClient(t, addrs, func(o *Options) {
		o.Filler = db
		o.Tracer = tr
	})
	if _, hit, err := c.GetThrough(context.Background(), "cold"); err != nil || hit {
		t.Fatalf("GetThrough = hit=%v err=%v, want miss", hit, err)
	}
	kinds := byKind(tr.Snapshot())
	roots := kinds["client/get_through"]
	if len(roots) != 1 {
		t.Fatalf("client/get_through spans = %d, want 1", len(roots))
	}
	lookups := kinds["backend/lookup"]
	if len(lookups) != 1 || lookups[0].Trace != roots[0].Trace || lookups[0].Parent != roots[0].ID {
		t.Errorf("backend/lookup spans = %+v, want one under root %+v", lookups, roots[0])
	}
	// The nested cache read is a child of the same root.
	gets := kinds["client/get"]
	if len(gets) != 1 || gets[0].Parent != roots[0].ID {
		t.Errorf("client/get spans = %+v, want one under root", gets)
	}
}

func TestUntracedClientSendsNoHeaders(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	addrs := startTracedCluster(t, 1, tr)
	c := newClient(t, addrs, nil) // no tracer on the client
	if err := c.Set("k", []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if kept, total := tr.Stats(); kept != 0 || total != 0 {
		t.Errorf("server tracer saw %d/%d spans from an untraced client", kept, total)
	}
}
