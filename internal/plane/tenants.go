package plane

import (
	"fmt"

	"memqlat/internal/loadgen"
	"memqlat/internal/sim"
	"memqlat/internal/stats"
	"memqlat/internal/tenant"
)

// TenantResult is one tenant's cross-plane surface: the model plane
// fills the analytic rates; measured planes add realized counters and
// the admitted-traffic latency histogram.
type TenantResult struct {
	// Name / Class echo the spec.
	Name  string
	Class string
	// Offered is the tenant's offered key rate λ_t = Share_t × Λ.
	Offered float64
	// Admitted is the post-bucket key rate the shared stages see: the
	// analytic min(λ_t, Rate_t) on the model plane, the realized rate
	// on measured planes.
	Admitted float64
	// Issued / Shed count keys on the measured planes (zero on model).
	Issued int64
	Shed   int64
	// Latency is the admitted-traffic per-request latency histogram
	// (nil on the model plane).
	Latency *stats.Histogram
}

// tenantTier is the tenant QoS unit, and returns the admitted rate Λ′
// the shared stages are priced at. Admission lives at the proxy, so the
// scenario must interpose one. Every plane prices QoS alike: tenant t
// offers Share_t × Λ, its bucket sustains admitted_t = min(offered_t,
// Rate_t) (gold and unlimited tenants pass through), and Λ′ = Σ_t
// admitted_t. The aggressor's excess never enters λ, so the victims'
// Theorem 1 band is the Λ′ band. The composition simulator draws each
// request's tenant from the Share mix and runs the same token buckets on
// a virtual clock at the offered Λ; the live plane runs the real limiter
// at the proxy under a tenant-mixed load.
func (s Scenario) tenantTier() (t tier, total float64, err error) {
	if s.Proxy == nil {
		return tier{}, 0, fmt.Errorf("plane: scenario %q declares tenants but no proxy (QoS lives at the proxy tier)", s.Name)
	}
	lim, err := tenant.New(s.Tenants)
	if err != nil {
		return tier{}, 0, fmt.Errorf("plane: scenario %q: %w", s.Name, err)
	}
	shares := tenant.Shares(s.Tenants)
	rows := make([]TenantResult, len(s.Tenants))
	for i, h := range lim.Tenants() {
		offered := shares[i] * s.TotalKeyRate
		rows[i] = TenantResult{Name: h.Name(), Class: h.Class(), Offered: offered,
			Admitted: s.Tenants[i].AdmittedRate(offered)}
		total += rows[i].Admitted
	}
	// measured is tenant i's row with its realized counters.
	measured := func(i int, admitted float64, issued, shed int64, lat *stats.Histogram) TenantResult {
		r := rows[i]
		r.Admitted, r.Issued, r.Shed, r.Latency = admitted, issued, shed, lat
		return r
	}
	return tier{
		name:  "tenant QoS",
		price: func(res *Result) error { res.Tenants = rows; return nil },
		lower: func(rc *sim.RequestConfig) error {
			rc.Tenants, rc.OfferedKeyRate = s.Tenants, s.TotalKeyRate
			return nil
		},
		simulated: func(out *sim.RequestResult, res *Result) {
			// The virtual run spans Requests×N offered keys at rate Λ.
			span := float64(s.Requests) * float64(s.N) / s.TotalKeyRate
			for i, t := range out.Tenants {
				snap := t.Snapshot()
				res.Tenants = append(res.Tenants,
					measured(i, float64(snap.Admitted)/span, snap.Admitted+snap.Shed, snap.Shed, t.Latency()))
			}
		},
		drive: func(r *LiveRun, d *driver) error {
			// The buckets meter on the run clock, so populate is admitted
			// unthrottled and the simulator's virtual timeline shares the
			// epoch.
			r.lim, d.proxy.Tenants, d.proxy.TenantClock = lim, lim, r.clock.Now
			d.load.Tenants = s.Tenants
			return nil
		},
		summarize: func(_ *LiveRun, lg *loadgen.Result, res *Result) {
			for i, ts := range lg.Tenants {
				admitted := 0.0
				if lg.Elapsed > 0 {
					admitted = float64(ts.Issued-ts.Sheds) / lg.Elapsed.Seconds()
				}
				res.Tenants = append(res.Tenants, measured(i, admitted, ts.Issued, ts.Sheds, ts.Latency))
			}
		},
	}, total, nil
}
