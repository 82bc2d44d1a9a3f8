package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/plane"
	"memqlat/internal/slo"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
	"memqlat/internal/workload"
)

// crossPlaneFaults is the canonical demonstration schedule: a mild
// slowdown on server 0 (≈1µs mean extra service, pushing ρ from 0.78
// to ≈0.84 — degraded but still inside the ξ=0.15 burst-tolerance
// cliff) plus a 2% reply-drop on server 1 whose 2ms timeout stand-in
// dominates the tail.
const crossPlaneFaults = "slow:srv=0,p=0.05,delay=20us;drop:srv=1,p=0.02,delay=2ms"

// crossPlane is the paper's whole evaluation (model vs simulation vs
// measurement) as one table: the Facebook workload through every
// deterministic plane, healthy, then faulted with and without the
// resilience policies. The live plane needs wall-clock time at scaled
// rates, so `repro -run live` covers it.
func crossPlane() *section {
	faults := schedule(crossPlaneFaults)
	faulted := func(s *plane.Scenario) error { s.Faults = faults; return nil }
	resilient := fault.Resilience{Retries: 2, RetryBackoff: 100e-6, BreakerThreshold: 0.5}
	quantiles := []struct {
		name string
		p    float64
		of   func(telemetry.StageStats) float64
	}{
		{"p50", 0.50, func(s telemetry.StageStats) float64 { return s.P50 }},
		{"p95", 0.95, func(s telemetry.StageStats) float64 { return s.P95 }},
		{"p99", 0.99, func(s telemetry.StageStats) float64 { return s.P99 }},
	}
	cols := []col{{"plane", nil}, totalCol, {"E[TS(N)]", func(r row) string { return band(r.last(), r.last().TS) }},
		{"E[TD(N)]", func(r row) string { return us(r.last().TD) }}}
	for _, st := range telemetry.Stages() {
		cols = append(cols, col{st.String(), func(r row) string { return us(r.last().Breakdown[st].Mean) }})
	}
	return &section{
		id:    "crossplane",
		title: "one scenario, every plane: Facebook workload through model / sim / sim-integrated, healthy and faulted",
		base:  facebook(),
		legs: []leg{
			{cells: []string{"model"}, on: onModel},
			{cells: []string{"sim"}, on: onSim},
			{cells: []string{"sim-integrated"}, on: onIntegrated},
			{cells: []string{"sim-integrated faulted"}, on: onIntegrated, mut: faulted},
			{cells: []string{"sim faulted"}, on: onSim, mut: faulted},
			{cells: []string{"sim faulted+resilient"}, on: onSim,
				mut: func(s *plane.Scenario) error { s.Resilience = resilient; return faulted(s) }},
		},
		cols: cols,
		notes: []string{
			"per-stage columns are telemetry means: analytic predictions on the model " +
				"plane, measured per-key/per-request stage latencies on the simulator planes",
			"the sim-integrated row drops the §3 independence assumption; its gap vs the " +
				"sim row is the assumption's cost (see ext-integrated)",
			"faulted rows share the schedule " + crossPlaneFaults + "; the resilient row " +
				"adds 2 read retries and a 50% circuit breaker (the model has no failure " +
				"modes — the faulted-vs-model gap is what Theorem 1 cannot see)",
			"the live TCP plane reports the same surface at scaled rates: repro -run live",
		},
		more: func(_ Budget, rep *Report, runs []row) error {
			for _, r := range runs {
				if s := r.last().Sim; s != nil && (s.FailedKeys > 0 || s.ShedKeys > 0) {
					rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d/%d keys failed, %d shed, %d/%d requests degraded",
						r.cells[0], s.FailedKeys, s.KeyCount, s.ShedKeys, s.DegradedRequests, s.Requests))
				}
			}
			// Predicted-vs-observed quantile block: for each level, the
			// model's analytic stage quantiles directly above every measured
			// plane's sample quantiles of the same stages.
			for _, q := range quantiles {
				for _, r := range runs {
					res := r.last()
					cells := []string{r.cells[0] + " " + q.name, quantile(res.Sample, q.p, us), "-", "-"}
					for _, st := range telemetry.Stages() {
						cells = append(cells, us(q.of(res.Breakdown[st])))
					}
					rep.Rows = append(rep.Rows, cells)
				}
			}
			rep.Notes = append(rep.Notes, "quantile rows diff the model's distributional shape against the measured "+
				"samples: service/miss are exponential predictions (−ln(1−p)·mean), "+
				"queue-wait the eq. 3 law P{W > t} = δ·e^{−Rt} plus the same-batch term "+
				"(the SLO watchdog's bands), fork_join an analytic point mass; E[T(N)] on "+
				"measured quantile rows is the sample quantile of the total")
			return nil
		},
	}
}

const (
	hotKeyKeys  = 50
	hotKeyZipfS = 1.2
	// hotKeyDBFault stalls every database lookup by 10ms — the
	// degraded-backend leg where coalescing bounds the blast radius to
	// one delayed fetch per key window instead of one per miss.
	hotKeyDBFault = "slow:srv=db,p=1,delay=10ms"
)

// hotKey contrasts the naive miss path (every miss fetches) with
// single-flight coalescing (concurrent misses on a key share one
// fetch) on every plane, under a hot Zipf miss keyspace. The model's
// totals do not move (memorylessness); what coalescing changes is the
// backend fetch rate Λ·r·(1−D), D the delayed-hit fraction
// (plane.DelayedHitFraction), which the sim legs count, healthy and
// with a stalled database, and the live legs against a bounded
// single-queue backend.
func hotKey() *section {
	// A miss-heavy cluster whose misses concentrate on a small Zipf
	// keyspace: the thundering-herd regime where many in-flight requests
	// chase the same uncached key.
	model := &core.Config{N: 10, LoadRatios: core.BalancedLoad(2), TotalKeyRate: 20000, Q: 0.1, Xi: 0.15,
		MuS: 80000, MissRatio: 0.3, MuD: 200, NetworkLatency: 20e-6}
	base := plane.FromConfig("hotkey", model)
	base.Keys, base.ZipfS = hotKeyKeys, hotKeyZipfS
	stalled := schedule(hotKeyDBFault)
	coalesced := func(s *plane.Scenario) error { s.Coalesce = true; return nil }
	faulted := func(s *plane.Scenario) error { s.Faults = stalled; return nil }
	// The live legs run scaled rates against a bounded single-queue backend.
	liveHot := func(label string, coalesce bool) leg {
		return leg{cells: []string{label}, on: onLive, mut: func(s *plane.Scenario) error {
			*s = plane.Scenario{Name: "hotkey-live", Config: core.Config{N: 1, LoadRatios: core.BalancedLoad(2),
				TotalKeyRate: 1200, Q: 0.1, Xi: 0.15, MuS: 4000, MissRatio: 0.5, MuD: 200},
				Ops: 5000, Workers: 32, Seed: s.Seed, Keys: 8, ZipfS: 4, // one mega-hot key carries ~93% of misses
				FillTTL: -time.Second, DBQueueDepth: 64, Coalesce: coalesce}
			return nil
		}}
	}
	return &section{
		id:    "hotkey",
		title: "hot-key thundering herd: naive vs single-flight coalesced miss path on every plane",
		base:  base,
		legs: []leg{
			{cells: []string{"model naive"}, on: onModel},
			{cells: []string{"model coalesced"}, on: onModel, mut: coalesced},
			{cells: []string{"sim naive"}, on: onSim},
			{cells: []string{"sim coalesced"}, on: onSim, mut: coalesced},
			{cells: []string{"sim naive faulted"}, on: onSim, mut: faulted},
			{cells: []string{"sim coalesced faulted"}, on: onSim,
				mut: func(s *plane.Scenario) error { coalesced(s); return faulted(s) }},
			liveHot("live naive", false), liveHot("live coalesced", true),
		},
		cols: append([]col{{"leg", nil}, totalCol,
			{"E[TD(N)]", func(r row) string { return us(r.last().TD) }},
			{"p99", func(r row) string { return quantile(r.last().Sample, 0.99, us) }}},
			columns(func(r row) []string { return herd(r.last()) },
				"misses", "db fetches", "delayed hits", "queue peak")...),
		notes: []string{
			"model totals are identical with coalescing on/off by memorylessness (the residual " +
				"of an Exp(µD) fetch window is Exp(µD)); coalescing moves backend load, not the " +
				"per-request latency bound",
			"sim faulted legs share " + hotKeyDBFault + ": naive pays the stall once per miss, " +
				"coalesced once per key window (delayed hits inherit the leader's stretched window)",
			"live legs use a steady-miss hot keyspace (FillTTL < 0 so write-backs never mask " +
				"misses) against a single-queue µD=200/s backend bounded at depth 64: the naive " +
				"herd saturates the queue, coalescing collapses it to ~1 in-flight fetch per hot key",
		},
		more: func(_ Budget, rep *Report, runs []row) error {
			// Analytic prediction for the sim legs' fetch savings.
			lambdaMiss := model.TotalKeyRate * model.MissRatio
			d, err := plane.DelayedHitFraction(lambdaMiss, model.MuD, hotKeyKeys, hotKeyZipfS)
			if err != nil {
				return err
			}
			rep.Notes = slices.Insert(rep.Notes, 0, fmt.Sprintf(
				"predicted delayed-hit fraction D = %.2f (λ_miss=%.0f/s, µD=%.0f, "+
					"Zipf %.1f over %d keys): coalescing should cut backend fetches to ~%.0f%% of misses",
				d, lambdaMiss, model.MuD, hotKeyZipfS, hotKeyKeys, 100*(1-d)))
			if n := len(runs); runs[n-1].last().Live != nil { // the live legs ran, last
				naive, coal := runs[n-2].last(), runs[n-1].last()
				rep.Notes = append(rep.Notes, fmt.Sprintf("live naive: %d issued, %d errors (queue-full sheds), "+
					"queue peak %s; live coalesced: %d issued, %d errors, %s fan-ins", naive.Live.Issued,
					naive.Live.Errors, herd(naive)[3], coal.Live.Issued, coal.Live.Errors, herd(coal)[2]))
			}
			return nil
		},
	}
}

// herd is a leg's miss-path accounting — misses, database fetches,
// delayed hits and the database queue peak — "-" where its plane keeps
// no such counter.
func herd(res *plane.Result) []string {
	c := []string{"-", "-", "-", "-"}
	if s := res.Sim; s != nil {
		c[0], c[1], c[2] = fmt.Sprint(s.MissCount), fmt.Sprint(s.BackendFetches), fmt.Sprint(s.DelayedHits)
	}
	if res.Live != nil {
		c[0] = fmt.Sprint(res.Live.Misses)
	}
	if res.DB != nil {
		c[1], c[3] = fmt.Sprint(res.DB.Lookups), fmt.Sprint(res.DB.QueuePeak)
	}
	if res.Coalesce != nil {
		c[2] = fmt.Sprint(res.Coalesce.FanIns)
	}
	return c
}

const (
	// noisyOffered is the offered key rate Λ: 1.2× the 2×80K cluster
	// capacity, unservable as offered (ρ = 1.20).
	noisyOffered = 192000.0
	// noisyQuota caps the aggressor at a third of its offered half, so
	// admitted Λ′ = 0.5Λ + Λ/6 = (2/3)Λ lands the shared stages at
	// ρ = 0.80 — comfortably inside the Theorem 1 regime.
	noisyQuota = noisyOffered / 2 / 3
)

// noisy is the noisy-neighbor QoS experiment on every plane: a victim
// tenant inside its contract shares the cluster with an aggressor
// offering 3× its op quota, and the proxy's token buckets shed the
// excess before the shared queues. The model prices the shared stages
// at the admitted Λ′ = Σ min(offered, quota), so the victim's band is
// computable although the offered load (ρ = 1.20) is unservable.
func noisy() *section {
	// Two servers offered 1.2× their capacity: the regime where an
	// unthrottled tenant would push every shared queue past the latency
	// cliff.
	base := plane.FromConfig("noisy", &core.Config{N: 10, LoadRatios: core.BalancedLoad(2),
		TotalKeyRate: noisyOffered, Q: 0.1, Xi: 0.15, MuS: 80000, MissRatio: 0.02, MuD: 1000, NetworkLatency: 20e-6})
	base.Proxy = &plane.ProxySpec{}
	base.Tenants = []tenant.Spec{{Name: "victim", Share: 0.5}, {Name: "aggressor", Rate: noisyQuota, Share: 0.5}}
	admitted := noisyOffered/2 + noisyQuota
	return &section{
		id:    "noisy",
		title: "noisy neighbor: token-bucket QoS sheds an over-quota aggressor on every plane",
		base:  base,
		legs: []leg{{on: onModel}, {on: onSim}, {on: onLive, mut: func(s *plane.Scenario) error {
			// Scaled rates through the real proxy, limiter and loadgen.
			*s = plane.Scenario{Name: "noisy-live", Config: core.Config{N: 1, LoadRatios: core.BalancedLoad(2),
				TotalKeyRate: 1600, Q: 0.1, Xi: 0.15, MuS: 850, MissRatio: 0.02, MuD: 2000},
				Ops: 6000, Workers: 32, Seed: s.Seed, Proxy: &plane.ProxySpec{},
				Tenants: []tenant.Spec{{Name: "victim", Share: 0.5},
					{Name: "aggressor", Rate: 1600 * 0.5 / 3, Share: 0.5}}}
			return nil
		}}},
		cols: heads("leg", "tenant", "offered/s", "admitted/s", "shed %", "issued", "shed", "p99", "E[T(N)]"),
		notes: []string{
			fmt.Sprintf("offered Λ = %.0f/s is 1.2× the 2×80K cluster capacity; the aggressor's "+
				"quota (%.0f/s) sheds its excess at the proxy, so the shared stages run at "+
				"Λ′ = %.0f/s (ρ = %.2f)", noisyOffered, noisyQuota, admitted, admitted/(2*base.MuS)),
			"the victim is unlimited and inside its 50% share: every plane must show it " +
				"shedding nothing while the aggressor sheds ≈2/3 of what it offers",
			"model rows are priced rates (no per-tenant sample: issued/shed are analytic, " +
				"shown as shed %); sim/live rows count real admissions and sheds through the " +
				"same token-bucket code on virtual vs wall clocks",
			"live leg runs the real proxy limiter at scaled rates (Λ = 1600/s over two " +
				"µS = 850/s servers): sheds come back as SERVER_ERROR tenant over quota and " +
				"are excluded from the latency histograms",
		},
		more: func(b Budget, rep *Report, runs []row) error {
			for _, r := range runs {
				rep.Rows = append(rep.Rows, tenantRows(r.last())...)
			}
			sim := runs[1].last().Sim
			rep.Notes = append(rep.Notes, fmt.Sprintf("sim shed accounting: %d keys shed, %d requests fully shed out of %d",
				sim.TenantShedKeys, sim.ShedRequests, b.Requests))
			return nil
		},
	}
}

// tenantRows is one leg of noisy: a row per tenant (offered vs admitted
// rate, realized shed counts, per-tenant p99) plus an "all" row with
// the leg's end-to-end total over the admitted traffic.
func tenantRows(res *plane.Result) [][]string {
	var rows [][]string
	var offered, admitted float64
	for _, tr := range res.Tenants {
		issued, shed := "-", "-"
		if tr.Issued > 0 {
			issued, shed = fmt.Sprint(tr.Issued), fmt.Sprint(tr.Shed)
		}
		rows = append(rows, []string{res.Plane, tr.Name + " (" + tr.Class + ")",
			fmt.Sprintf("%.0f", tr.Offered), fmt.Sprintf("%.0f", tr.Admitted),
			pct(1 - tr.Admitted/tr.Offered), issued, shed, quantile(tr.Latency, 0.99, us), "-"})
		offered += tr.Offered
		admitted += tr.Admitted
	}
	return append(rows, []string{res.Plane, "all", fmt.Sprintf("%.0f", offered), fmt.Sprintf("%.0f", admitted),
		pct(1 - admitted/offered), "-", "-", quantile(res.Sample, 0.99, us), band(res, res.Total)})
}

// liveScenario is the live and proxied sections' workload, scaled to
// rates the live TCP stack sustains in real time on one machine.
func liveScenario(seed uint64) plane.Scenario {
	return plane.Scenario{Name: "live", Config: core.Config{N: 1, LoadRatios: core.BalancedLoad(2),
		TotalKeyRate: 1000, Q: 0.1, Xi: 0.15, MuS: 1000, MissRatio: 0.01, MuD: 1000}, Ops: 2000, Workers: 32, Seed: seed}
}

// proxied prices an mcrouter-style proxy between the clients and the
// fleet (NOT in the paper) on every plane: the model adds one GI^X/M/1
// fork-join stage in series, the simulator threads every key through a
// proxy stream, the live plane runs a real TCP proxy. Rows sweep the
// arrival rate for direct vs proxied vs replicated routing.
func proxied() *section {
	var legs []leg
	for _, mult := range []float64{0.5, 0.75, 1.0} {
		load, lam := fmt.Sprintf("λ×%.2f", mult), workload.FacebookLambda*mult
		routed := func(routing string, on []plane.Plane, proxy *plane.ProxySpec) leg {
			return leg{cells: []string{load, routing}, on: on, mut: func(s *plane.Scenario) error {
				err := lift(s, workload.WithLambda(lam))
				s.Proxy = proxy
				return err
			}}
		}
		legs = append(legs, routed("direct", onModelSim, nil), routed("proxied", onModelSim, &plane.ProxySpec{}))
		// Replicated reads double the per-server key rate; past the
		// stability boundary the queue diverges, which the row records
		// instead of a latency.
		if 2*lam >= workload.FacebookMuS {
			legs = append(legs, leg{cells: []string{load, "replicated r=2", "-", "unstable (2λ ≥ µS)", "-"}})
			continue
		}
		legs = append(legs, routed("replicated r=2", onSim, &plane.ProxySpec{Policy: "replicate", Replicas: 2}))
	}
	// The live rows: a real proxy in front of real servers at scaled rates.
	live := func(routing string, proxy *plane.ProxySpec) leg {
		return leg{cells: []string{"live λ=1K/s", routing}, on: onLive,
			mut: func(s *plane.Scenario) error { *s = liveScenario(s.Seed); s.Proxy = proxy; return nil }}
	}
	legs = append(legs, live("direct", nil), live("proxied", &plane.ProxySpec{}))
	return &section{
		id:    "proxied",
		title: "Proxy tier: direct vs proxied vs replicated routing on every plane",
		legs:  legs,
		cols: []col{{"load", nil}, {"routing", nil},
			{"model E[T(N)]", func(r row) string {
				return r.or("model", func(m *plane.Result) string { return lat(m.Point()) })
			}},
			{"measured E[T(N)]", func(r row) string { return lat(r.last().Point()) }},
			{"proxy hop mean", func(r row) string {
				if r.s.Proxy == nil {
					return "-"
				}
				return lat(r.last().Breakdown.MeanOf(telemetry.StageProxyHop))
			}}},
		notes: []string{
			"the model prices the proxy as one more GI^X/M/1 fork-join stage in series at rate µP = M·µS; " +
				"replicated routing is simulator/live-only (routing does not change the model's queueing structure)",
			"replicated r=2 charges the duplicated reads to the servers, so it trades server load for tail hedging",
			"live proxy hop is the forward-path cost (parse + route + upstream enqueue) measured inside the proxy; " +
				"live totals additionally pay one extra loopback RTT per key",
		},
	}
}

// The tiered sweep spends a fixed hardware budget on two storage
// classes priced per item: RAM at tieredRAMCost units, SSD at
// tieredSSDCost. Every row buys a different RAM:SSD mix with the same
// tieredBudget units, so the table answers the capacity-planning
// question directly: at 4:1 price parity, how much RAM is worth
// trading for a slower-but-bigger extstore tier?
const (
	tieredKeys   = 2000
	tieredZipfS  = 1.0
	tieredMuDisk = 2000.0 // SSD reads at 2× the DB rate (0.5ms mean)

	tieredRAMCost = 4
	tieredSSDCost = 1
	tieredBudget  = 2400
)

// tiered sweeps RAM:SSD splits at a fixed total cost on the model and
// simulator planes, plus one scaled live leg with real segment files.
// One MRC over the seeded Zipf trace prices every plane's tier: r (the
// RAM miss ratio) and β (the share of those misses the SSD absorbs).
func tiered() *section {
	// The paper's N=10 baseline with a slow enough backend (µ_D =
	// 1000/s) that the miss path dominates: exactly the regime where an
	// SSD tier pays. MissRatio is set per split by the MRC.
	base := plane.FromConfig("tiered", &core.Config{N: 10, LoadRatios: core.BalancedLoad(2), TotalKeyRate: 20000,
		Q: 0.1, Xi: 0.15, MuS: 80000, MissRatio: 0.1, MuD: 1000, NetworkLatency: 20e-6})
	base.Keys, base.ZipfS = tieredKeys, tieredZipfS
	var legs []leg
	for _, f := range []float64{1, 2.0 / 3, 0.5, 1.0 / 3, 1.0 / 6} {
		ram, ssd := int(f*tieredBudget)/tieredRAMCost, (tieredBudget-int(f*tieredBudget))/tieredSSDCost
		legs = append(legs, leg{cells: []string{fmt.Sprintf("%d:%d", ram, ssd)}, on: onModelSim,
			mut: func(s *plane.Scenario) error {
				// The curve is probed with a tier even for the all-RAM
				// split, which keeps only its RAM miss ratio.
				s.Extstore = &plane.ExtstoreSpec{RAMItems: ram, TotalItems: max(ram+ssd, ram+1), MuDisk: tieredMuDisk}
				split, err := s.ExtstoreSplit()
				s.MissRatio = 1 - split.RAMHit
				if ssd == 0 {
					s.Extstore = nil
				}
				return err
			}})
	}
	// The live leg: the mid-sweep split on the real stack, with real
	// segment files in a temp dir, at live-sustainable rates. MissRatio
	// stays 0: the capacity-sized cache produces misses organically.
	legs = append(legs, leg{cells: []string{"live 200:1600"}, on: onLive, mut: func(s *plane.Scenario) error {
		*s = plane.Scenario{Name: "tiered-live", Config: core.Config{N: 1, LoadRatios: core.BalancedLoad(2),
			TotalKeyRate: 4000, Q: 0.1, Xi: 0.15, MuS: 2000, MuD: 1000}, Ops: max(s.Requests, 2000), Workers: 32,
			Duration: 45 * time.Second, Seed: s.Seed, Keys: tieredKeys, ZipfS: tieredZipfS,
			Extstore: &plane.ExtstoreSpec{RAMItems: 200, TotalItems: 1800, MuDisk: tieredMuDisk}}
		return nil
	}})
	return &section{
		id:    "tiered",
		title: "tiered storage: RAM:SSD splits at fixed cost, priced by one shared MRC",
		base:  base,
		legs:  legs,
		cols: append([]col{{"split ram:ssd", nil}}, columns(func(r row) []string {
			res, miss, beta, hits, fetches, meas := r.last(), r.s.MissRatio, 0.0, int64(0), int64(0), "-"
			if res.Sim != nil {
				hits, fetches = res.Sim.DiskHits, res.Sim.BackendFetches
			}
			if e := res.Extstore; e != nil {
				miss, beta, hits = 1-e.Predicted.RAMHit, e.Predicted.DiskHitFraction(), e.DiskHits
				if e.RAMMisses > 0 {
					meas = fmt.Sprintf("%.2f", e.DiskHitFraction())
				}
			}
			if res.Live != nil {
				fetches = res.Live.Misses // the DB faults the tier failed to absorb
			}
			return []string{fmt.Sprintf("%.3f", miss), fmt.Sprintf("%.2f", beta),
				r.or("model", func(m *plane.Result) string { return band(m, m.Total) }),
				us(res.Point()), quantile(res.Sample, 0.99, us), fmt.Sprint(hits), fmt.Sprint(fetches), meas}
		}, "r", "β pred", "model E[T(N)]", "measured E[T(N)]", "p99", "disk hits", "db fetches", "β meas")...),
		notes: []string{
			fmt.Sprintf("every split spends the same %d cost units at %d:%d RAM:SSD price parity "+
				"(e.g. 600 RAM items ↔ 2400 SSD items); r and β come from one seeded Zipf(%.1f) "+
				"MRC over %d keys, shared verbatim by all planes", tieredBudget,
				tieredRAMCost, tieredSSDCost, tieredZipfS, tieredKeys),
			fmt.Sprintf("µ_disk = %.0f/s sits at 2× µ_D — close enough that the model's blended "+
				"miss-stage rate tracks the sim's explicit hit-or-fetch mixture; widely separated "+
				"rates would make the fork-join max visibly non-exponential", tieredMuDisk),
			"trading RAM for SSD raises r (smaller RAM catches fewer hits) but converts DB misses " +
				"into 0.5ms disk reads: E[T(N)] falls as long as β grows faster than r — the table's " +
				"minimum is the cost-optimal split",
		},
		more: func(_ Budget, rep *Report, runs []row) error {
			if live := runs[len(runs)-1].last(); live.Live != nil { // the live leg ran, last
				le := live.Extstore
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"live leg: %d disk hits / %d RAM misses (β=%.2f vs MRC %.2f), %d promotions, "+
						"%d segments holding %d bytes, %d compactions",
					le.DiskHits, le.RAMMisses, le.DiskHitFraction(), le.Predicted.DiskHitFraction(),
					le.Promotions, le.Segments, le.SegmentBytes, le.Compactions))
			}
			return nil
		},
	}
}

// Drift-experiment detector settings, shared across every leg so the
// sim and live detections are judged by the same instrument.
const (
	driftWindow = 0.25 // rolling-window length, seconds
	driftK      = 2    // consecutive out-of-band windows before drifting
	driftBand   = 3.0  // multiplicative tolerance around the prediction

	// driftLiveWindow is the live leg's window: longer than the sim's
	// because the wall-clock leg runs at scaled-down rates, and each
	// window must still hold >= MinSamples miss observations.
	driftLiveWindow = 0.5

	// The injected fault: the back-end database turns slow mid-run,
	// stretching the miss penalty >20x past its 1/µD=2ms prediction —
	// far outside any band, so attribution is unambiguous.
	driftFaultFrom  = 1.0 // seconds into the run
	driftFaultDelay = "50ms"

	// Detection must land within this many windows of the fault onset.
	driftDetectWithin = 5
)

// driftStage is the stage the fault perturbs; the watchdog must rank
// it as the top drift.
var driftStage = telemetry.StageMissPenalty.String()

// watched arms a fresh watchdog, anchored on the Theorem-1 bands of
// the scenario as then leaves it, on each run. Target arms burn-rate
// alerting (0 = drift only).
func watched(window, target float64, then func(*plane.Scenario)) func(*plane.Scenario) error {
	return func(s *plane.Scenario) error {
		if then != nil {
			then(s)
		}
		pred, err := plane.PredictedBands(*s)
		if err != nil {
			return err
		}
		s.SLO, err = slo.NewWatchdog(slo.Config{Window: window, K: driftK, Band: driftBand,
			Target: target, Budget: 0.05, Predicted: pred})
		return err
	}
}

// driftWindows is a leg's fault window (-1: unfaulted) and the window
// its watchdog first saw the faulted stage drift (-1: never).
func driftWindows(r row) (faulted, detected int64) {
	st := r.last().SLO
	faulted = -1
	if !r.s.Faults.Empty() {
		faulted = int64(driftFaultFrom / st.WindowSeconds)
	}
	return faulted, st.FirstDriftWindow(driftStage)
}

// drift is the watchdog's end-to-end validation, an artifact the paper
// does not have: arm the model-anchored SLO watchdog on a running
// plane, turn the database slow mid-run, and measure how many rolling
// windows pass before the detector fires — and whether it attributes
// the drift to the stage that actually moved (miss_penalty). Each leg
// checks that. The two sim legs replay on the virtual timeline, so
// they must detect at the same window; the live leg repeats the run on
// the real TCP stack under wall-clock windows, at rates scaled down
// until timer granularity is negligible against the 2ms service mean.
// The healthy λ ramp checks the opposite failure: bands re-anchored per
// load point must not false-alarm on load alone.
func drift() *section {
	faults := schedule(fmt.Sprintf("slow:srv=db,from=%gs,delay=%s", driftFaultFrom, driftFaultDelay))
	attributed := func(who string, r row) error {
		if top := r.last().SLO.TopDrift; top != driftStage {
			return fmt.Errorf("drift: %s attributed drift to %q, want %s", who, top, driftStage)
		}
		return nil
	}
	simRun := func(i int) leg {
		// Target 10ms: the faulted miss path blows the end-to-end SLO,
		// exercising the multi-window burn-rate alert alongside drift.
		return leg{cells: []string{fmt.Sprintf("sim run %d", i)}, on: onSim, mut: watched(driftWindow, 10e-3, nil),
			check: func(r row, prior []row) error {
				fw, detected := driftWindows(r)
				if detected < 0 {
					return fmt.Errorf("drift: sim run %d never detected %s drift", i, driftStage)
				}
				if err := attributed(fmt.Sprintf("sim run %d", i), r); err != nil || i == 1 {
					return err // the first run has no earlier run to repeat
				}
				if _, first := driftWindows(prior[0]); first != detected {
					return fmt.Errorf("drift: sim detection not deterministic (window %d vs %d under the same seed)",
						first, detected)
				}
				if detected > fw+driftDetectWithin {
					return fmt.Errorf("drift: sim detected at window %d, want <= fault window %d + %d",
						detected, fw, driftDetectWithin)
				}
				return nil
			}}
	}
	legs := []leg{simRun(1), simRun(2), {cells: []string{"live"}, on: onLive,
		mut: watched(driftLiveWindow, 0, func(s *plane.Scenario) {
			*s = plane.Scenario{Name: "drift-live", Config: core.Config{N: 1, LoadRatios: core.BalancedLoad(2),
				TotalKeyRate: 300, Q: 0.1, Xi: 0.15, MuS: 500, MissRatio: 0.2, MuD: 500},
				Ops: 1500, Workers: 32, Seed: s.Seed, Faults: faults}
		}),
		check: func(r row, _ []row) error {
			if fw, detected := driftWindows(r); detected < 0 || detected > fw+driftDetectWithin {
				return fmt.Errorf("drift: live leg detected %s at window %d, want within %d windows of fault window %d",
					driftStage, detected, driftDetectWithin, fw)
			}
			return attributed("live leg", r)
		}}}
	for _, lambda := range []float64{2000, 4000, 6000} {
		legs = append(legs, leg{cells: []string{fmt.Sprintf("ramp λ=%g (healthy)", lambda)}, on: onSim,
			mut: watched(driftWindow, 0, func(s *plane.Scenario) { s.Faults, s.TotalKeyRate = fault.Schedule{}, lambda }),
			check: func(r row, _ []row) error {
				if st := r.last().SLO; st.DriftAlerts > 0 {
					return fmt.Errorf("drift: healthy ramp at λ=%g false-alarmed (%d drift alerts, top %s)",
						lambda, st.DriftAlerts, st.TopDrift)
				}
				return nil
			}})
	}
	return &section{
		id:    "drift",
		title: "SLO watchdog: db-slow fault detection latency across planes, plus a healthy-load false-alarm sweep",
		// A miss-heavy mix, so the database stage carries enough
		// per-window samples to be judged.
		base: plane.Scenario{Name: "drift", Config: core.Config{N: 10, LoadRatios: core.BalancedLoad(2),
			TotalKeyRate: 2000, Q: 0.1, Xi: 0.15, MuS: 4000, MissRatio: 0.2, MuD: 500}, Faults: faults},
		legs: legs,
		cols: append([]col{{"leg", nil}}, columns(func(r row) []string {
			st, fw, det, delay, mag := r.last().SLO, "-", "-", "-", 0.0
			f, d := driftWindows(r)
			if f >= 0 {
				fw = fmt.Sprint(f)
			}
			if d >= 0 {
				det = fmt.Sprint(d)
			}
			if f >= 0 && d >= 0 {
				delay = fmt.Sprint(d - f)
			}
			for _, ss := range st.Stages {
				if ss.Stage == st.TopDrift {
					mag = ss.Magnitude
				}
			}
			return []string{fw, det, delay, cmp.Or(st.TopDrift, "-"), fmt.Sprintf("%.1f", mag),
				fmt.Sprintf("%d/%d", st.DriftAlerts, st.BurnAlerts)}
		}, "fault window", "detected window", "delay (windows)", "top drift", "magnitude", "drift/burn alerts")...),
		notes: []string{
			fmt.Sprintf("detector: %gs rolling windows, K=%d consecutive windows, band ×%g around the "+
				"Theorem-1 per-stage quantiles (plane.PredictedBands re-anchored per scenario)", driftWindow, driftK, driftBand),
			fmt.Sprintf("fault: database service stretched by %s from t=%gs — the miss_penalty stage "+
				"leaves its 1/µD band while every other stage stays on-model", driftFaultDelay, driftFaultFrom),
			"the two sim runs share a seed: the composition simulator drives the watchdog on the " +
				"virtual timeline, so the detection window is a deterministic function of the seed",
			fmt.Sprintf("the live leg runs the same detector on %gs wall-clock windows over the real "+
				"TCP stack at scaled-down rates; scheduler jitter can move the detection window, "+
				"the attribution must not move", driftLiveWindow),
			"ramp rows re-anchor the bands at each λ and must stay alert-free: load alone is not drift",
		},
	}
}
