package proxy

import (
	"fmt"
	"io"
	"log"
	"net"
	"testing"

	"memqlat/internal/cache"
	"memqlat/internal/otrace"
	"memqlat/internal/server"
)

// startTracedBackends brings up n servers sharing tr, numbered 0..n-1.
func startTracedBackends(t testing.TB, n int, tr *otrace.Tracer) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		c, err := cache.New(cache.Options{MaxBytes: 64 << 20})
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
		go func() { _ = srv.Serve(l) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func spansByKind(spans []otrace.Span) map[string][]otrace.Span {
	out := make(map[string][]otrace.Span)
	for _, sp := range spans {
		out[sp.Comp+"/"+sp.Name] = append(out[sp.Comp+"/"+sp.Name], sp)
	}
	return out
}

func TestTraceHeaderPropagatesThroughProxy(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	backends := startTracedBackends(t, 2, tr)
	_, addr := startProxy(t, Options{Upstreams: backends, Tracer: tr})
	c := dialConn(t, addr)
	c.set("tkey", "tv")

	// A client-minted context: trace 41, parent span 7.
	c.send("mq_trace 41 7\r\nget tkey\r\n")
	got := c.retrieval()
	if got["tkey"] != "tv" {
		t.Fatalf("traced get = %v", got)
	}
	kinds := spansByKind(tr.Snapshot())
	hops := kinds["proxy/hop"]
	if len(hops) != 1 || hops[0].Trace != 41 || hops[0].Parent != 7 {
		t.Fatalf("proxy/hop spans = %+v, want one with trace 41 parent 7", hops)
	}
	handles := kinds["server/handle"]
	if len(handles) != 1 || handles[0].Trace != 41 || handles[0].Parent != hops[0].ID {
		t.Errorf("server/handle spans = %+v, want one under hop %d", handles, hops[0].ID)
	}
}

func TestTraceSplitMultiGetFansOut(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	backends := startTracedBackends(t, 4, tr)
	_, addr := startProxy(t, Options{Upstreams: backends, Tracer: tr})
	c := dialConn(t, addr)
	keys := ""
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("sk-%d", i)
		c.set(k, "v")
		keys += " " + k
	}
	c.send("mq_trace 99 0\r\nget" + keys + "\r\n")
	if got := c.retrieval(); len(got) != 16 {
		t.Fatalf("split read returned %d keys, want 16", len(got))
	}
	kinds := spansByKind(tr.Snapshot())
	hops := kinds["proxy/hop"]
	if len(hops) != 1 {
		t.Fatalf("proxy/hop spans = %d, want 1", len(hops))
	}
	handles := kinds["server/handle"]
	if len(handles) < 2 {
		t.Fatalf("server/handle spans = %d, want >= 2 (split fan-out)", len(handles))
	}
	servers := map[int]bool{}
	for _, h := range handles {
		if h.Trace != 99 || h.Parent != hops[0].ID {
			t.Errorf("handle %+v not under hop %d trace 99", h, hops[0].ID)
		}
		servers[h.Server] = true
	}
	if len(servers) < 2 {
		t.Errorf("fan-out hit %d servers, want >= 2", len(servers))
	}
}

func TestUntracedProxyPathRecordsNothing(t *testing.T) {
	tr := otrace.New(otrace.Options{})
	backends := startTracedBackends(t, 2, tr)
	_, addr := startProxy(t, Options{Upstreams: backends, Tracer: tr})
	c := dialConn(t, addr)
	c.set("plain", "v")
	c.send("get plain\r\n")
	if got := c.retrieval(); got["plain"] != "v" {
		t.Fatalf("get = %v", got)
	}
	if kept, total := tr.Stats(); kept != 0 || total != 0 {
		t.Errorf("untraced traffic recorded %d/%d spans", kept, total)
	}
}

func TestUpstreamQueueDepths(t *testing.T) {
	backends := startTracedBackends(t, 2, nil)
	p, addr := startProxy(t, Options{Upstreams: backends})
	depths := p.UpstreamQueueDepths()
	if len(depths) != 2 {
		t.Fatalf("depths = %v, want 2 entries", depths)
	}
	c := dialConn(t, addr)
	c.set("qk", "v")
	// Steady state: queues drain back to zero.
	for _, d := range p.UpstreamQueueDepths() {
		if d < 0 {
			t.Errorf("negative queue depth %d", d)
		}
	}
}
