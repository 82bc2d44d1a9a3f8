package experiments

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/plane"
	"memqlat/internal/telemetry"
	"memqlat/internal/workload"
)

// Proxied is the proxy-tier experiment (NOT in the paper): it prices an
// mcrouter-style proxy interposed between clients and the memcached
// fleet on every plane. The model adds one more GI^X/M/1 fork-join
// stage in series (Theorem 1 composes additively); the composition
// simulator threads every key through a proxy stream in virtual time;
// the live plane runs a real TCP proxy (internal/proxy) in front of
// real servers. Rows sweep the arrival rate for direct vs proxied vs
// replicated routing, then close with the scaled live measurement.
func Proxied(b Budget) (*Report, error) {
	start := time.Now()
	ctx := context.Background()
	var rows [][]string

	// --- model + simulator sweep over load ---
	for _, mult := range []float64{0.5, 0.75, 1.0} {
		s := plane.FromConfig(fmt.Sprintf("λ×%.2f", mult),
			workload.WithLambda(workload.FacebookLambda*mult))
		s.Requests = b.Requests
		s.KeysPerServer = b.KeysPerServer
		s.Seed = b.Seed

		proxied := s
		proxied.Proxy = &plane.ProxySpec{}
		repl := s
		repl.Proxy = &plane.ProxySpec{Policy: "replicate", Replicas: 2}

		mdir, err := (plane.ModelPlane{}).Run(ctx, s)
		if err != nil {
			return nil, err
		}
		mpx, err := (plane.ModelPlane{}).Run(ctx, proxied)
		if err != nil {
			return nil, err
		}
		sdir, err := (plane.SimPlane{}).Run(ctx, s)
		if err != nil {
			return nil, err
		}
		spx, err := (plane.SimPlane{}).Run(ctx, proxied)
		if err != nil {
			return nil, err
		}
		hop := spx.Breakdown.MeanOf(telemetry.StageProxyHop)
		rows = append(rows,
			[]string{s.Name, "direct", lat(mdir.Point()), lat(sdir.Point()), "-"},
			[]string{s.Name, "proxied", lat(mpx.Point()), lat(spx.Point()), lat(hop)},
		)
		// Replicated reads double the per-server key rate; past the
		// stability boundary the queue diverges, which the row records
		// instead of a latency.
		model, err := s.Config()
		if err != nil {
			return nil, err
		}
		if 2*model.ServerKeyRate(0) >= model.MuS {
			rows = append(rows, []string{s.Name, "replicated r=2", "-", "unstable (2λ ≥ µS)", "-"})
			continue
		}
		srp, err := (plane.SimPlane{}).Run(ctx, repl)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{s.Name, "replicated r=2", "-", lat(srp.Point()),
			lat(srp.Breakdown.MeanOf(telemetry.StageProxyHop))})
	}

	// --- live: real proxy in front of real servers at scaled rates ---
	live := plane.Scenario{
		Name:         "live",
		N:            1,
		LoadRatios:   core.BalancedLoad(liveServers),
		TotalKeyRate: livePerServerLambda * liveServers,
		Q:            liveQ,
		Xi:           liveXi,
		MuS:          liveMuS,
		MissRatio:    0.01,
		MuD:          1000,
		Ops:          liveOps,
		Workers:      32,
		Seed:         b.Seed,
	}
	ldir, err := (plane.LivePlane{}).Run(ctx, live)
	if err != nil {
		return nil, err
	}
	liveProxied := live
	liveProxied.Proxy = &plane.ProxySpec{}
	lpx, err := (plane.LivePlane{}).Run(ctx, liveProxied)
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		[]string{"live λ=1K/s", "direct", "-", lat(ldir.Point()), "-"},
		[]string{"live λ=1K/s", "proxied", "-", lat(lpx.Point()),
			lat(lpx.Breakdown.MeanOf(telemetry.StageProxyHop))},
	)

	return &Report{
		ID:      "proxied",
		Title:   "Proxy tier: direct vs proxied vs replicated routing on every plane",
		Columns: []string{"load", "routing", "model E[T(N)]", "measured E[T(N)]", "proxy hop mean"},
		Rows:    rows,
		Notes: []string{
			"the model prices the proxy as one more GI^X/M/1 fork-join stage in series at rate µP = M·µS; " +
				"replicated routing is simulator/live-only (routing does not change the model's queueing structure)",
			"replicated r=2 charges the duplicated reads to the servers, so it trades server load for tail hedging",
			"live proxy hop is the forward-path cost (parse + route + upstream enqueue) measured inside the proxy; " +
				"live totals additionally pay one extra loopback RTT per key",
		},
		Elapsed: time.Since(start),
	}, nil
}
