package metrics

import (
	"strconv"

	"memqlat/internal/backend"
	"memqlat/internal/client"
	"memqlat/internal/coalesce"
	"memqlat/internal/otrace"
	"memqlat/internal/protocol"
	"memqlat/internal/proxy"
	"memqlat/internal/server"
	"memqlat/internal/slo"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// RegisterTelemetry exposes a telemetry Collector's per-stage latency
// decomposition: one histogram family labelled by stage, backed by the
// same merged log-bucketed histograms Breakdown summarizes, plus a
// quantile gauge family so the page states p50/p95/p99 directly — the
// numbers `stats telemetry` and the crossplane experiment print.
func RegisterTelemetry(r *Registry, c *telemetry.Collector) {
	RegisterTelemetryExemplars(r, c, nil)
}

// RegisterTelemetryExemplars is RegisterTelemetry with OpenMetrics
// exemplars: each stage's histogram attaches the most recent traced
// observation from ex (trace_id, value, timestamp) to the bucket that
// contains it. A nil store emits plain histograms — binaries opt in
// with a flag precisely because classic Prometheus text parsers may
// reject the exemplar suffix.
func RegisterTelemetryExemplars(r *Registry, c *telemetry.Collector, ex *telemetry.ExemplarStore) {
	if r == nil || c == nil {
		return
	}
	r.HistogramWithExemplars("memqlat_stage_latency_seconds",
		"Per-stage latency decomposition (Theorem 1 stages plus resilience stages).",
		nil, func(emit func(Labels, *stats.Histogram, *Exemplar)) {
			hs := c.Histograms()
			for _, stage := range telemetry.Stages() {
				var e *Exemplar
				if x := ex.Stage(stage); x != nil {
					e = &Exemplar{TraceID: x.TraceID, Value: x.Value, Unix: x.Unix}
				}
				emit(L("stage", stage.String()), hs[stage], e)
			}
		})
	r.GaugeVec("memqlat_stage_latency_quantile_seconds",
		"Per-stage latency quantiles at histogram bucket resolution.",
		func(emit func(Labels, float64)) {
			b := c.Breakdown()
			for _, stage := range telemetry.Stages() {
				st := b[stage]
				if st.Count == 0 {
					continue
				}
				name := stage.String()
				emit(L("stage", name, "q", "0.5"), st.P50)
				emit(L("stage", name, "q", "0.95"), st.P95)
				emit(L("stage", name, "q", "0.99"), st.P99)
			}
		})
	r.CounterVec("memqlat_stage_observations_total",
		"Observation count per telemetry stage.",
		func(emit func(Labels, float64)) {
			b := c.Breakdown()
			for _, stage := range telemetry.Stages() {
				emit(L("stage", stage.String()), float64(b[stage].Count))
			}
		})
}

// itoa is strconv.Itoa under a name that reads well in label-building
// call sites below.
func itoa(i int) string { return strconv.Itoa(i) }

// breakerStateValue encodes a breaker state string as a gauge value so
// dashboards can alert on transitions: 0 closed, 1 half-open, 2 open,
// -1 disabled.
func breakerStateValue(state string) float64 {
	switch state {
	case "closed":
		return 0
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return -1
}

// RegisterServers exposes a cluster of servers on one registry:
// connection/command counters, the per-command latency histogram behind
// "stats latency", and the backing cache's occupancy, hit/miss,
// eviction and shard-lock contention counters. The "server" label is
// the slice index — the same numbering the model and simulator use.
func RegisterServers(r *Registry, srvs []*server.Server) {
	if r == nil || len(srvs) == 0 {
		return
	}
	// perServer publishes one number per server under the "server" label.
	perServer := func(vec func(string, string, func(func(Labels, float64))), name, help string, v func(*server.Server) float64) {
		vec(name, help, func(emit func(Labels, float64)) {
			for i, s := range srvs {
				emit(L("server", itoa(i)), v(s))
			}
		})
	}
	perServer(r.GaugeVec, "memqlat_server_connections_current",
		"Open downstream connections per server.",
		func(s *server.Server) float64 { return float64(s.Counters().CurrConns) })
	perServer(r.CounterVec, "memqlat_server_connections_total",
		"Connections ever accepted per server.",
		func(s *server.Server) float64 { return float64(s.Counters().TotalConns) })
	perServer(r.CounterVec, "memqlat_server_connections_rejected_total",
		"Connections rejected (MaxConns cap or refuse-fault window).",
		func(s *server.Server) float64 { return float64(s.Counters().RejectedConns) })
	r.CounterVec("memqlat_server_commands_total",
		"Commands dispatched per server and protocol op.",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				for op := protocol.OpGet; op <= protocol.OpTrace; op++ {
					if n := s.OpCount(op); n > 0 {
						emit(L("server", itoa(i), "op", op.String()), float64(n))
					}
				}
			}
		})
	r.Histogram("memqlat_server_command_latency_seconds",
		"Per-command handling latency; every command is timed.",
		nil, func(emit func(Labels, *stats.Histogram)) {
			for i, s := range srvs {
				emit(L("server", itoa(i)), s.LatencyHistogram())
			}
		})
	// Event-loop core gauges: absent (no series) on the goroutine core,
	// so dashboards can tell the cores apart by family presence.
	r.GaugeVec("memqlat_server_loop_connections",
		"Connections owned by each event-loop goroutine (eventloop core only).",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				for li, ls := range s.LoopStats() {
					emit(L("server", itoa(i), "loop", itoa(li)), float64(ls.Conns))
				}
			}
		})
	r.CounterVec("memqlat_server_loop_wakeups_total",
		"epoll_wait returns per event-loop goroutine (readiness batches).",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				for li, ls := range s.LoopStats() {
					emit(L("server", itoa(i), "loop", itoa(li)), float64(ls.Wakeups))
				}
			}
		})
	r.CounterVec("memqlat_server_loop_flush_batches_total",
		"Coalesced reply flushes per event-loop goroutine (one per connection per batch with output).",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				for li, ls := range s.LoopStats() {
					emit(L("server", itoa(i), "loop", itoa(li)), float64(ls.FlushBatches))
				}
			}
		})
	r.CounterVec("memqlat_server_loop_commands_total",
		"Commands dispatched per event-loop goroutine.",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				for li, ls := range s.LoopStats() {
					emit(L("server", itoa(i), "loop", itoa(li)), float64(ls.Commands))
				}
			}
		})
	r.GaugeVec("memqlat_cache_shard_items",
		"Cached items per server and shard (occupancy balance).",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				for sh, st := range s.Cache().ShardStats() {
					emit(L("server", itoa(i), "shard", itoa(sh)), float64(st.Items))
				}
			}
		})
	r.GaugeVec("memqlat_cache_shard_bytes",
		"Cached bytes per server and shard.",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				for sh, st := range s.Cache().ShardStats() {
					emit(L("server", itoa(i), "shard", itoa(sh)), float64(st.Bytes))
				}
			}
		})
	r.CounterVec("memqlat_cache_operations_total",
		"Cache hit/miss/set/eviction/expiration counts per server.",
		func(emit func(Labels, float64)) {
			for i, s := range srvs {
				st := s.Cache().Stats()
				srv := itoa(i)
				emit(L("server", srv, "result", "hit"), float64(st.Hits))
				emit(L("server", srv, "result", "miss"), float64(st.Misses))
				emit(L("server", srv, "result", "set"), float64(st.Sets))
				emit(L("server", srv, "result", "eviction"), float64(st.Evictions))
				emit(L("server", srv, "result", "expiration"), float64(st.Expirations))
			}
		})
	perServer(r.CounterVec, "memqlat_cache_lock_waits_total",
		"Contended shard-lock acquisitions per server.",
		func(s *server.Server) float64 { return float64(s.Cache().Stats().LockWaits) })
	perServer(r.CounterVec, "memqlat_cache_lock_wait_seconds_total",
		"Summed shard-lock blocked time per server.",
		func(s *server.Server) float64 { return s.Cache().Stats().LockWaitSeconds })
}

// RegisterProxy exposes the proxy's forwarding counters, per-upstream
// pipeline depth and failover breaker states.
func RegisterProxy(r *Registry, p *proxy.Proxy) {
	if r == nil || p == nil {
		return
	}
	r.Counter("memqlat_proxy_commands_total",
		"Commands the proxy dispatched.",
		func() float64 { return float64(p.Stats().Commands) })
	r.Counter("memqlat_proxy_forwarded_total",
		"Upstream sends (fan-out legs count individually).",
		func() float64 { return float64(p.Stats().Forwarded) })
	r.Counter("memqlat_proxy_failovers_total",
		"Keys routed off their owner by an open breaker.",
		func() float64 { return float64(p.Stats().Failovers) })
	r.GaugeVec("memqlat_proxy_upstream_queue_depth",
		"Outstanding pipelined requests per upstream server.",
		func(emit func(Labels, float64)) {
			for i, d := range p.UpstreamQueueDepths() {
				emit(L("upstream", itoa(i)), float64(d))
			}
		})
	r.GaugeVec("memqlat_proxy_breaker_state",
		"Failover breaker per upstream: 0 closed, 1 half-open, 2 open, -1 disabled.",
		func(emit func(Labels, float64)) {
			for i := 0; i < p.Stats().Upstreams; i++ {
				emit(L("upstream", itoa(i)), breakerStateValue(p.BreakerState(i)))
			}
		})
}

// RegisterTenants exposes the QoS limiter's per-tenant ledger: the
// admitted/shed op and byte counters the noisy-neighbor smoke asserts
// on, the live bucket levels, and the admitted-traffic latency
// histogram with its headline quantiles. The "tenant" label is the
// spec name; the implicit catch-all appears as "*" once it has seen
// traffic.
func RegisterTenants(r *Registry, lim *tenant.Limiter) {
	if r == nil || lim == nil {
		return
	}
	// handles returns every tenant with traffic-bearing state: the
	// declared ones in order, then the implicit catch-all if active.
	handles := func() []*tenant.Tenant {
		ts := lim.Tenants()
		def := lim.Default()
		for _, t := range ts {
			if t == def {
				return ts
			}
		}
		if s := def.Snapshot(); s.Admitted > 0 || s.Shed > 0 {
			ts = append(ts[:len(ts):len(ts)], def)
		}
		return ts
	}
	r.CounterVec("memqlat_tenant_admitted_total",
		"Operations admitted past the tenant's token bucket.",
		func(emit func(Labels, float64)) {
			for _, s := range lim.Snapshots() {
				emit(L("tenant", s.Name), float64(s.Admitted))
			}
		})
	r.CounterVec("memqlat_tenant_shed_total",
		"Operations refused by the tenant's token bucket (shed before queue).",
		func(emit func(Labels, float64)) {
			for _, s := range lim.Snapshots() {
				emit(L("tenant", s.Name), float64(s.Shed))
			}
		})
	r.CounterVec("memqlat_tenant_admitted_bytes_total",
		"Stored bytes admitted past the tenant's byte bucket.",
		func(emit func(Labels, float64)) {
			for _, s := range lim.Snapshots() {
				emit(L("tenant", s.Name), float64(s.AdmBytes))
			}
		})
	r.CounterVec("memqlat_tenant_shed_bytes_total",
		"Stored bytes refused by the tenant's byte bucket.",
		func(emit func(Labels, float64)) {
			for _, s := range lim.Snapshots() {
				emit(L("tenant", s.Name), float64(s.ShedBytes))
			}
		})
	r.GaugeVec("memqlat_tenant_tokens",
		"Current op-token level of the tenant's bucket.",
		func(emit func(Labels, float64)) {
			for _, s := range lim.Snapshots() {
				emit(L("tenant", s.Name), s.Tokens)
			}
		})
	r.GaugeVec("memqlat_tenant_byte_tokens",
		"Current byte-token level of the tenant's bucket.",
		func(emit func(Labels, float64)) {
			for _, s := range lim.Snapshots() {
				emit(L("tenant", s.Name), s.ByteTokens)
			}
		})
	r.Histogram("memqlat_tenant_latency_seconds",
		"Admitted-traffic latency per tenant (proxy hop on the data plane).",
		nil, func(emit func(Labels, *stats.Histogram)) {
			for _, t := range handles() {
				emit(L("tenant", t.Name()), t.Latency())
			}
		})
	r.GaugeVec("memqlat_tenant_latency_quantile_seconds",
		"Admitted-traffic latency quantiles per tenant.",
		func(emit func(Labels, float64)) {
			for _, t := range handles() {
				h := t.Latency()
				if h.Count() == 0 {
					continue
				}
				name := t.Name()
				emit(L("tenant", name, "q", "0.5"), h.MustQuantile(0.5))
				emit(L("tenant", name, "q", "0.95"), h.MustQuantile(0.95))
				emit(L("tenant", name, "q", "0.99"), h.MustQuantile(0.99))
			}
		})
}

// RegisterClient exposes the client's per-server pool counters and
// breaker states (the mcbench admin page).
func RegisterClient(r *Registry, c *client.Client) {
	if r == nil || c == nil {
		return
	}
	r.GaugeVec("memqlat_client_pool_idle",
		"Pooled idle connections per server.",
		func(emit func(Labels, float64)) {
			for i := 0; i < c.NumServers(); i++ {
				ps, err := c.PoolStats(i)
				if err != nil {
					continue
				}
				emit(L("server", itoa(i)), float64(ps.Idle))
			}
		})
	r.CounterVec("memqlat_client_pool_dials_total",
		"Connections dialed per server.",
		func(emit func(Labels, float64)) {
			for i := 0; i < c.NumServers(); i++ {
				ps, err := c.PoolStats(i)
				if err != nil {
					continue
				}
				emit(L("server", itoa(i)), float64(ps.Dials))
			}
		})
	r.CounterVec("memqlat_client_pool_discards_total",
		"Connections closed instead of recycled, with the liveness screen's share.",
		func(emit func(Labels, float64)) {
			for i := 0; i < c.NumServers(); i++ {
				ps, err := c.PoolStats(i)
				if err != nil {
					continue
				}
				emit(L("server", itoa(i), "reason", "all"), float64(ps.Discards))
				emit(L("server", itoa(i), "reason", "stale"), float64(ps.StaleDrops))
			}
		})
	r.GaugeVec("memqlat_client_breaker_state",
		"Client breaker per server: 0 closed, 1 half-open, 2 open, -1 disabled.",
		func(emit func(Labels, float64)) {
			for i := 0; i < c.NumServers(); i++ {
				emit(L("server", itoa(i)), breakerStateValue(c.BreakerState(i)))
			}
		})
}

// RegisterCoalesce exposes a single-flight group's miss-coalescing
// counters: how many keys have a fetch in flight right now, how many
// callers are attached, and the cumulative fetch/fan-in/shed ledger —
// fan-ins are backend fetches saved, the herd-protection headline.
func RegisterCoalesce(r *Registry, g *coalesce.Group) {
	if r == nil || !g.Coalescing() {
		return
	}
	r.Gauge("memqlat_coalesce_inflight_keys",
		"Keys with a backend fetch currently in flight.",
		func() float64 { return float64(g.Stats().InflightKeys) })
	r.Gauge("memqlat_coalesce_waiters",
		"Callers currently attached to in-flight fetches (excluding leaders).",
		func() float64 { return float64(g.Stats().Waiters) })
	r.Counter("memqlat_coalesce_fetches_total",
		"Backend fetches actually issued (one per single-flight leader).",
		func() float64 { return float64(g.Stats().Fetches) })
	r.Counter("memqlat_coalesce_fanins_total",
		"Callers that attached to an existing fetch — backend fetches saved.",
		func() float64 { return float64(g.Stats().FanIns) })
	r.Counter("memqlat_coalesce_sheds_total",
		"Callers rejected because a key's waiter count hit MaxWaiters.",
		func() float64 { return float64(g.Stats().Sheds) })
	r.Counter("memqlat_coalesce_invalidations_total",
		"Writes that invalidated an in-flight fetch (stale write-back suppressed).",
		func() float64 { return float64(g.Stats().Invalidations) })
}

// RegisterBackend exposes the simulated database's load counters,
// including the single-queue depth gauges that make a thundering herd
// visible (both zero in concurrent mode).
func RegisterBackend(r *Registry, db *backend.DB) {
	if r == nil || db == nil {
		return
	}
	r.Counter("memqlat_backend_lookups_total",
		"Database lookups served (the post-coalescing fetch load).",
		func() float64 { return float64(db.Stats().Lookups) })
	r.Counter("memqlat_backend_dropped_total",
		"Lookups rejected at the single-queue admission bound.",
		func() float64 { return float64(db.Stats().Dropped) })
	r.Gauge("memqlat_backend_queue_depth",
		"Current single-queue backlog (0 in concurrent mode).",
		func() float64 { return float64(db.Stats().QueueDepth) })
	r.Gauge("memqlat_backend_queue_peak",
		"Single-queue backlog high-watermark since start.",
		func() float64 { return float64(db.Stats().QueuePeak) })
}

// RegisterSLO exposes the watchdog's state as the memqlat_slo_* metric
// families: the model band anchors and last-window observed quantiles
// per stage, the drift bookkeeping (streak, drifting flag, magnitude),
// the burn rates and the alert counters — everything /debug/watch
// serves, shaped for scraping. Each family snapshots the watchdog at
// scrape time; an idle page costs the recording hot path nothing.
func RegisterSLO(r *Registry, wd *slo.Watchdog) {
	if r == nil || wd == nil {
		return
	}
	r.Gauge("memqlat_slo_armed",
		"1 once the watchdog is armed and ingesting observations.",
		func() float64 {
			if wd.Armed() {
				return 1
			}
			return 0
		})
	r.Counter("memqlat_slo_windows_closed_total",
		"Rolling windows closed and evaluated since arming.",
		func() float64 { return float64(wd.Status().WindowsClosed) })
	r.GaugeVec("memqlat_slo_stage_predicted_seconds",
		"Theorem-1 band anchor per stage and quantile (the model's prediction).",
		func(emit func(Labels, float64)) {
			for _, ss := range wd.Status().Stages {
				if ss.Predicted == nil {
					continue
				}
				emit(L("stage", ss.Stage, "q", "0.5"), ss.Predicted.P50)
				emit(L("stage", ss.Stage, "q", "0.95"), ss.Predicted.P95)
				emit(L("stage", ss.Stage, "q", "0.99"), ss.Predicted.P99)
			}
		})
	r.GaugeVec("memqlat_slo_stage_observed_seconds",
		"Observed quantiles of the last evaluated window per stage.",
		func(emit func(Labels, float64)) {
			for _, ss := range wd.Status().Stages {
				if ss.Count == 0 {
					continue
				}
				emit(L("stage", ss.Stage, "q", "0.5"), ss.Observed.P50)
				emit(L("stage", ss.Stage, "q", "0.95"), ss.Observed.P95)
				emit(L("stage", ss.Stage, "q", "0.99"), ss.Observed.P99)
			}
		})
	r.GaugeVec("memqlat_slo_stage_drift_streak",
		"Consecutive windows the stage has sat outside its model band.",
		func(emit func(Labels, float64)) {
			for _, ss := range wd.Status().Stages {
				emit(L("stage", ss.Stage), float64(ss.Streak))
			}
		})
	r.GaugeVec("memqlat_slo_stage_drifting",
		"1 while the stage's drift streak has reached K (alert condition).",
		func(emit func(Labels, float64)) {
			for _, ss := range wd.Status().Stages {
				v := 0.0
				if ss.Drifting {
					v = 1
				}
				emit(L("stage", ss.Stage), v)
			}
		})
	r.GaugeVec("memqlat_slo_stage_drift_magnitude",
		"Worst observed/predicted quantile ratio of the last evaluated window (1 = on-model).",
		func(emit func(Labels, float64)) {
			for _, ss := range wd.Status().Stages {
				if ss.Count == 0 {
					continue
				}
				emit(L("stage", ss.Stage), ss.Magnitude)
			}
		})
	r.GaugeVec("memqlat_slo_burn_rate",
		"Error-budget burn rate over the short and long alignment windows.",
		func(emit func(Labels, float64)) {
			st := wd.Status()
			emit(L("window", "short"), st.BurnShort)
			emit(L("window", "long"), st.BurnLong)
		})
	r.Gauge("memqlat_slo_burn_active",
		"1 while both burn windows exceed the alert threshold.",
		func() float64 {
			if wd.Status().BurnActive {
				return 1
			}
			return 0
		})
	r.Counter("memqlat_slo_drift_alerts_total",
		"Drift alert episodes fired since arming.",
		func() float64 { return float64(wd.Status().DriftAlerts) })
	r.Counter("memqlat_slo_burn_alerts_total",
		"Burn-rate alert episodes fired since arming.",
		func() float64 { return float64(wd.Status().BurnAlerts) })
}

// RegisterTracer exposes the trace ring's retention counters so a
// scraper can tell how much of the trace survived (total - kept spans
// were evicted).
func RegisterTracer(r *Registry, t *otrace.Tracer) {
	if r == nil || !t.Enabled() {
		return
	}
	r.Gauge("memqlat_trace_spans_kept",
		"Spans currently retained in the trace ring.",
		func() float64 { kept, _ := t.Stats(); return float64(kept) })
	r.Counter("memqlat_trace_spans_total",
		"Spans recorded over the tracer's lifetime.",
		func() float64 { _, total := t.Stats(); return float64(total) })
}
