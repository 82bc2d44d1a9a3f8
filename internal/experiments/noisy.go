package experiments

import (
	"context"
	"fmt"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/plane"
	"memqlat/internal/tenant"
)

// noisyModel is a two-server cluster offered 1.2× its capacity — the
// noisy-neighbor regime where an unthrottled tenant would push every
// shared queue past the latency cliff. The proxy's token buckets shed
// the aggressor's excess before it reaches the queues, so the stages
// are priced (and measured) at the admitted Λ′, not the offered Λ.
func noisyModel() *core.Config {
	return &core.Config{
		N:              10,
		LoadRatios:     core.BalancedLoad(2),
		TotalKeyRate:   noisyOffered,
		Q:              0.1,
		Xi:             0.15,
		MuS:            80000,
		MissRatio:      0.02,
		MuD:            1000,
		NetworkLatency: 20e-6,
	}
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

// noisyTenants is the two-tenant mix: a victim inside its contract
// (unlimited) and an aggressor offering 3× its op quota.
func noisyTenants() []tenant.Spec {
	return []tenant.Spec{
		{Name: "victim", Share: 0.5},
		{Name: "aggressor", Rate: noisyQuota, Share: 0.5},
	}
}

// noisyRows formats one leg: a row per tenant (offered vs admitted
// rate, realized shed counts, per-tenant p99) plus an "all" row with
// the leg's end-to-end total over the admitted traffic.
func noisyRows(label string, res *plane.Result) [][]string {
	rows := make([][]string, 0, len(res.Tenants)+1)
	for _, tr := range res.Tenants {
		issued, shed := "-", "-"
		if tr.Issued > 0 {
			issued = fmt.Sprintf("%d", tr.Issued)
			shed = fmt.Sprintf("%d", tr.Shed)
		}
		p99 := "-"
		if tr.Latency != nil && tr.Latency.Count() > 0 {
			if v, err := tr.Latency.Quantile(0.99); err == nil {
				p99 = us(v)
			}
		}
		rows = append(rows, []string{
			label, tr.Name + " (" + tr.Class + ")",
			fmt.Sprintf("%.0f", tr.Offered), fmt.Sprintf("%.0f", tr.Admitted),
			pct(1 - tr.Admitted/tr.Offered), issued, shed, p99, "-",
		})
	}
	p99 := "-"
	if res.Sample != nil && res.Sample.Count() > 0 {
		if v, err := res.Sample.Quantile(0.99); err == nil {
			p99 = us(v)
		}
	}
	total := us(res.Point())
	if res.Total.Lo != res.Total.Hi {
		total = fmt.Sprintf("%s ~ %s", us(res.Total.Lo), us(res.Total.Hi))
	}
	var offered, admitted float64
	for _, tr := range res.Tenants {
		offered += tr.Offered
		admitted += tr.Admitted
	}
	rows = append(rows, []string{
		label, "all",
		fmt.Sprintf("%.0f", offered), fmt.Sprintf("%.0f", admitted),
		pct(1 - admitted/offered), "-", "-", p99, total,
	})
	return rows
}

// Noisy runs the noisy-neighbor QoS experiment on every plane: a
// victim tenant inside its contract shares the cluster with an
// aggressor offering 3× its op quota, and the proxy's token buckets
// shed the excess before the shared queues.
//
//   - model: each tenant's admitted rate is min(offered, quota); the
//     shared GI^X/M/1 stages are priced at Λ′ = Σ admitted — so the
//     victim's Theorem 1 band is computable even though the offered
//     load (ρ = 1.20) would be unservable.
//   - sim: the composition simulator draws per-request tenants from
//     the Share mix on the offered virtual timeline and runs the same
//     token-bucket code; shed keys draw nothing downstream.
//   - live: the real proxy runs the real limiter under a two-tenant
//     load mix at scaled rates; sheds come back as SERVER_ERROR lines
//     and are excluded from the latency sample.
//
// The point of the table: the aggressor sheds ≈2/3 of what it offers
// on every plane, the victim sheds nothing, and the victim's p99 stays
// in the healthy (ρ = 0.80) band instead of the cliff the offered load
// implies.
func Noisy(b Budget) (*Report, error) {
	start := time.Now()
	model := noisyModel()

	prep := func(seedOffset uint64) plane.Scenario {
		s := scenarioFor("noisy", model, b, seedOffset)
		s.Proxy = &plane.ProxySpec{}
		s.Tenants = noisyTenants()
		return s
	}

	var rows [][]string
	legs := []struct {
		label string
		p     plane.Plane
	}{
		{"model", plane.ModelPlane{}},
		{"sim", plane.SimPlane{}},
	}
	var simRes *plane.Result
	for _, l := range legs {
		res, err := l.p.Run(context.Background(), prep(0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.label, err)
		}
		if l.label == "sim" {
			simRes = res
		}
		rows = append(rows, noisyRows(l.label, res)...)
	}

	// --- live leg: scaled rates, real proxy + limiter + loadgen ---
	liveScenario := plane.Scenario{
		Name:         "noisy-live",
		N:            1,
		LoadRatios:   core.BalancedLoad(2),
		TotalKeyRate: 1600,
		Q:            0.1,
		Xi:           0.15,
		MuS:          850,
		MissRatio:    0.02,
		MuD:          2000,
		Ops:          6000,
		Workers:      32,
		Seed:         b.Seed,
		Proxy:        &plane.ProxySpec{},
		Tenants: []tenant.Spec{
			{Name: "victim", Share: 0.5},
			{Name: "aggressor", Rate: 1600 * 0.5 / 3, Share: 0.5},
		},
	}
	live, err := plane.LivePlane{}.Run(context.Background(), liveScenario)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	rows = append(rows, noisyRows("live", live)...)

	admitted := noisyOffered/2 + noisyQuota
	notes := []string{
		fmt.Sprintf("offered Λ = %.0f/s is 1.2× the 2×80K cluster capacity; the aggressor's "+
			"quota (%.0f/s) sheds its excess at the proxy, so the shared stages run at "+
			"Λ′ = %.0f/s (ρ = %.2f)", noisyOffered, noisyQuota, admitted,
			admitted/(2*model.MuS)),
		"the victim is unlimited and inside its 50% share: every plane must show it " +
			"shedding nothing while the aggressor sheds ≈2/3 of what it offers",
		"model rows are priced rates (no per-tenant sample: issued/shed are analytic, " +
			"shown as shed %); sim/live rows count real admissions and sheds through the " +
			"same token-bucket code on virtual vs wall clocks",
		"live leg runs the real proxy limiter at scaled rates (Λ = 1600/s over two " +
			"µS = 850/s servers): sheds come back as SERVER_ERROR tenant over quota and " +
			"are excluded from the latency histograms",
	}
	if simRes != nil && simRes.Sim != nil {
		notes = append(notes, fmt.Sprintf(
			"sim shed accounting: %d keys shed, %d requests fully shed out of %d",
			simRes.Sim.TenantShedKeys, simRes.Sim.ShedRequests, b.Requests))
	}
	return &Report{
		ID:    "noisy",
		Title: "noisy neighbor: token-bucket QoS sheds an over-quota aggressor on every plane",
		Columns: []string{"leg", "tenant", "offered/s", "admitted/s", "shed %",
			"issued", "shed", "p99", "E[T(N)]"},
		Rows:    rows,
		Notes:   notes,
		Elapsed: time.Since(start),
	}, nil
}
