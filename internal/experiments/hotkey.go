package experiments

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/fault"
	"memqlat/internal/plane"
)

// hotKeyModel is a miss-heavy cluster whose misses concentrate on a
// small Zipf keyspace: the thundering-herd regime where many in-flight
// requests chase the same uncached key.
func hotKeyModel() *core.Config {
	return &core.Config{
		N:              10,
		LoadRatios:     core.BalancedLoad(2),
		TotalKeyRate:   20000,
		Q:              0.1,
		Xi:             0.15,
		MuS:            80000,
		MissRatio:      0.3,
		MuD:            200,
		NetworkLatency: 20e-6,
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

// hotKeyRow formats one leg: totals plus the miss-path accounting that
// is the experiment's point (how many misses actually reached the
// database).
func hotKeyRow(label string, res *plane.Result) []string {
	p99 := "-"
	if res.Sample != nil && res.Sample.Count() > 0 {
		if v, err := res.Sample.Quantile(0.99); err == nil {
			p99 = us(v)
		}
	}
	misses, fetches, delayed, peak := "-", "-", "-", "-"
	if res.Sim != nil {
		misses = fmt.Sprintf("%d", res.Sim.MissCount)
		fetches = fmt.Sprintf("%d", res.Sim.BackendFetches)
		delayed = fmt.Sprintf("%d", res.Sim.DelayedHits)
	}
	if res.Live != nil {
		misses = fmt.Sprintf("%d", res.Live.Misses)
	}
	if res.DB != nil {
		fetches = fmt.Sprintf("%d", res.DB.Lookups)
		peak = fmt.Sprintf("%d", res.DB.QueuePeak)
	}
	if res.Coalesce != nil {
		delayed = fmt.Sprintf("%d", res.Coalesce.FanIns)
	}
	total := us(res.Point())
	if res.Total.Lo != res.Total.Hi {
		total = fmt.Sprintf("%s ~ %s", us(res.Total.Lo), us(res.Total.Hi))
	}
	return []string{label, total, us(res.TD), p99, misses, fetches, delayed, peak}
}

// HotKey contrasts the naive miss path (every miss fetches) with
// single-flight coalescing (concurrent misses on a key share one
// fetch) on every plane, under a hot Zipf miss keyspace:
//
//   - model: Theorem 1 totals are identical by memorylessness (the
//     residual of an Exp(µ_D) window is Exp(µ_D)); what the analysis
//     predicts to change is the backend fetch rate Λ·r·(1−D) with D
//     the delayed-hit fraction (plane.DelayedHitFraction).
//   - sim: the composition simulator draws per-key fetch windows on
//     the virtual timeline and reports fetches vs delayed hits.
//   - sim faulted: a stalled database (every lookup +10ms) — naive
//     multiplies the stall by the herd, coalescing pays it once per
//     key window.
//   - live: the real TCP stack with a bounded single-queue backend, a
//     steady-miss hot keyspace (negative fill TTL so write-backs never
//     mask misses) — the naive herd saturates the database queue
//     (watch queue peak) while coalescing keeps it near one in-flight
//     fetch per hot key.
func HotKey(b Budget) (*Report, error) {
	start := time.Now()
	model := hotKeyModel()
	faults, err := fault.ParseSchedule(hotKeyDBFault)
	if err != nil {
		return nil, err
	}

	prep := func(coalesce bool, faulted bool, seedOffset uint64) plane.Scenario {
		s := scenarioFor("hotkey", model, b, seedOffset)
		s.Coalesce = coalesce
		s.Keys = hotKeyKeys
		s.ZipfS = hotKeyZipfS
		if faulted {
			s.Faults = faults
		}
		return s
	}

	var rows [][]string
	type leg struct {
		label    string
		p        plane.Plane
		coalesce bool
		faulted  bool
	}
	legs := []leg{
		{"model naive", plane.ModelPlane{}, false, false},
		{"model coalesced", plane.ModelPlane{}, true, false},
		{"sim naive", plane.SimPlane{}, false, false},
		{"sim coalesced", plane.SimPlane{}, true, false},
		{"sim naive faulted", plane.SimPlane{}, false, true},
		{"sim coalesced faulted", plane.SimPlane{}, true, true},
	}
	for _, l := range legs {
		res, err := l.p.Run(context.Background(), prep(l.coalesce, l.faulted, 0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.label, err)
		}
		rows = append(rows, hotKeyRow(l.label, res))
	}

	// --- live legs: scaled rates, bounded single-queue backend ---
	liveLeg := func(coalesce bool) (*plane.Result, error) {
		s := plane.Scenario{
			Name:         "hotkey-live",
			N:            1,
			LoadRatios:   core.BalancedLoad(2),
			TotalKeyRate: 1200,
			Q:            0.1,
			Xi:           0.15,
			MuS:          4000,
			MissRatio:    0.5,
			MuD:          200,
			Ops:          5000,
			Workers:      32,
			Seed:         b.Seed,
			Keys:         8,
			ZipfS:        4, // one mega-hot key carries ~93% of misses
			FillTTL:      -time.Second,
			DBQueueDepth: 64,
			Coalesce:     coalesce,
		}
		return plane.LivePlane{}.Run(context.Background(), s)
	}
	naive, err := liveLeg(false)
	if err != nil {
		return nil, fmt.Errorf("live naive: %w", err)
	}
	coal, err := liveLeg(true)
	if err != nil {
		return nil, fmt.Errorf("live coalesced: %w", err)
	}
	rows = append(rows, hotKeyRow("live naive", naive), hotKeyRow("live coalesced", coal))

	// Analytic prediction for the sim legs' fetch savings.
	lambdaMiss := model.TotalKeyRate * model.MissRatio
	d, err := plane.DelayedHitFraction(lambdaMiss, model.MuD, hotKeyKeys, hotKeyZipfS)
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("predicted delayed-hit fraction D = %.2f (λ_miss=%.0f/s, µD=%.0f, "+
			"Zipf %.1f over %d keys): coalescing should cut backend fetches to ~%.0f%% of misses",
			d, lambdaMiss, model.MuD, hotKeyZipfS, hotKeyKeys, 100*(1-d)),
		"model totals are identical with coalescing on/off by memorylessness (the residual " +
			"of an Exp(µD) fetch window is Exp(µD)); coalescing moves backend load, not the " +
			"per-request latency bound",
		"sim faulted legs share " + hotKeyDBFault + ": naive pays the stall once per miss, " +
			"coalesced once per key window (delayed hits inherit the leader's stretched window)",
		"live legs use a steady-miss hot keyspace (FillTTL < 0 so write-backs never mask " +
			"misses) against a single-queue µD=200/s backend bounded at depth 64: the naive " +
			"herd saturates the queue, coalescing collapses it to ~1 in-flight fetch per hot key",
		fmt.Sprintf("live naive: %d issued, %d errors (queue-full sheds), queue peak %s; "+
			"live coalesced: %d issued, %d errors, %d fan-ins",
			naive.Live.Issued, naive.Live.Errors, rows[len(rows)-2][7],
			coal.Live.Issued, coal.Live.Errors, coalFanIns(coal)),
	}
	return &Report{
		ID:    "hotkey",
		Title: "hot-key thundering herd: naive vs single-flight coalesced miss path on every plane",
		Columns: []string{"leg", "E[T(N)]", "E[TD(N)]", "p99",
			"misses", "db fetches", "delayed hits", "queue peak"},
		Rows:    rows,
		Notes:   notes,
		Elapsed: time.Since(start),
	}, nil
}

func coalFanIns(res *plane.Result) int64 {
	if res.Coalesce == nil {
		return 0
	}
	return res.Coalesce.FanIns
}
