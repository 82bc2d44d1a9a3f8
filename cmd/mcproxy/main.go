// Command mcproxy runs the memqlat proxy tier: an mcrouter-style
// memcached proxy that multiplexes many client connections onto a small
// pool of pipelined upstream connections per server, routing keys with
// the same ketama ring the client uses.
//
// Example in front of two servers:
//
//	mcproxy -listen :11210 -servers 127.0.0.1:11211,127.0.0.1:11212
//
// -policy selects the routing mode: direct (plain consistent hashing),
// failover (circuit-broken retargeting to the next ring successor), or
// replicate (writes fan out to -replicas owners, reads race them).
// Point any memcached text-protocol client at -listen; `stats` answers
// with proxy counters before the upstream stats.
//
// -admin exposes the observability plane on a second listener:
// /metrics (forwarding counters, per-upstream queue depth, breaker
// states), /healthz, /debug/pprof and — with -trace-ring — /trace, the
// proxy-hop spans of in-band-traced requests as Chrome trace JSON.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"memqlat/internal/daemon"
	"memqlat/internal/metrics"
	"memqlat/internal/otrace"
	"memqlat/internal/plane"
	"memqlat/internal/proxy"
	"memqlat/internal/tenant"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcproxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcproxy", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:11210", "listen address")
		servers   = fs.String("servers", "127.0.0.1:11211", "comma-separated upstream memcached addresses")
		policy    = fs.String("policy", "direct", "routing policy (direct|failover|replicate)")
		replicas  = fs.Int("replicas", 2, "replication degree for -policy=replicate")
		conns     = fs.Int("upstream-conns", 2, "pipelined connections per upstream server")
		adminAddr = fs.String("admin", "", "observability listener address for /metrics, /healthz, /debug/pprof (empty = off)")
		traceRing = fs.Int("trace-ring", 0, "retain this many proxy-hop spans of in-band-traced requests, served on <admin>/trace (0 = off)")
		tenants   = fs.String("tenants", "", `tenant QoS specs, e.g. "acme:class=gold,rate=500;evil:rate=200,share=0.5" (empty = QoS off)`)
		sloSpec   = fs.String("slo", "", "arm the model-anchored SLO watchdog on the proxy_hop stage, e.g. 'lambda=2000,mus=8000,window=1s,k=2': model keys lambda and mus (needed), q, xi, n, mud, miss; detector keys window, k, band, target, budget (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Trapped before the admin plane answers: a signal from then on drains.
	sig, untrap := daemon.Trap()
	defer untrap()
	pol, err := proxy.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	var tracer *otrace.Tracer
	if *traceRing > 0 {
		tracer = otrace.New(otrace.Options{RingSize: *traceRing})
	}
	var lim *tenant.Limiter
	if *tenants != "" {
		specs, err := tenant.ParseSpecs(*tenants)
		if err != nil {
			return err
		}
		if lim, err = tenant.New(specs); err != nil {
			return err
		}
	}
	// The watchdog judges the proxy_hop stage against the Theorem-1
	// band of the proxy its -slo model keys describe.
	wd, err := plane.NewWatchdog(*sloSpec, plane.Scenario{Proxy: &plane.ProxySpec{}}, os.Stderr)
	if err != nil {
		return err
	}
	popts := proxy.Options{
		Upstreams:     strings.Split(*servers, ","),
		Policy:        pol,
		Replicas:      *replicas,
		UpstreamConns: *conns,
		Tracer:        tracer,
		Tenants:       lim,
		Logger:        log.New(os.Stderr, "mcproxy: ", log.LstdFlags),
	}
	if wd != nil {
		popts.Recorder = wd
	}
	p, err := proxy.New(popts)
	if err != nil {
		return err
	}
	if *adminAddr != "" {
		reg := metrics.NewRegistry()
		metrics.RegisterProxy(reg, p)
		metrics.RegisterTenants(reg, lim)
		admin, err := metrics.ServeAdmin(*adminAddr, reg, tracer, wd)
		if err != nil {
			return err
		}
		defer func() { _ = admin.Close() }()
		log.Printf("mcproxy: admin plane on http://%s/metrics", admin.Addr())
	}
	return daemon.Serve("mcproxy", *listen, p, wd, fmt.Sprintf(", %s routing over %s", pol, *servers), sig)
}
