package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"

	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
)

// tenantAdmission draws each request's tenant from the Share mix on
// stream 107; its keys charge that tenant.Tenant — the live proxy's
// buckets and latency histogram — on the virtual request clock.
type tenantAdmission struct {
	tenants []*tenant.Tenant
	mix     *dist.Weighted
	rng     *rand.Rand
}

func newTenantAdmission(cfg RequestConfig) (*tenantAdmission, error) {
	if len(cfg.Tenants) == 0 {
		return nil, nil
	}
	lim, err := tenant.New(cfg.Tenants)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	mix, err := dist.NewWeighted(tenant.Shares(cfg.Tenants))
	if err != nil {
		return nil, fmt.Errorf("sim: tenant shares: %w", err)
	}
	return &tenantAdmission{tenants: lim.Tenants(), mix: mix, rng: dist.SubRand(cfg.Seed, 107)}, nil
}

// draw picks an arriving request's tenant (nil without tenants).
func (ta *tenantAdmission) draw() *tenant.Tenant {
	if ta == nil {
		return nil
	}
	return ta.tenants[ta.mix.SampleInt(ta.rng)]
}

// drawnStage is the composition mode's memcached stage: a key's sojourn
// is drawn from its server's pre-simulated GI^X/M/1 stream through the
// resilience pipeline, and hedged across replicas.
type drawnStage struct {
	servers              []*ServerResult
	rs                   *simResilience
	rec                  telemetry.Recorder
	assign               *dist.Weighted
	rngAssign, rngSample *rand.Rand
	replicas             int
}

func (d *drawnStage) sojourn(j int, arrival float64, _ bool) (s, done float64, failed, shed bool) {
	s, failed, shed = d.rs.resolveKey(j, d.servers[j], d.rngSample, d.rec)
	// Hedged reads: fastest of `replicas` independent draws (replicas
	// live on distinct servers; with balanced load the same server's
	// distribution represents each).
	for rep := 1; rep < d.replicas; rep++ {
		s = min(s, d.servers[d.assign.SampleInt(d.rngAssign)].Sample(d.rngSample))
	}
	return s, arrival + s, failed, shed
}

// queuedStage is the integrated mode's memcached stage. Every key reaches
// its server T_N after its request launches, so launch order is arrival
// order at every FIFO server, and a key is one visit to its server's
// fifo (service on stream 300+j), faults and all.
type queuedStage struct {
	servers []fifo
	out     *RequestResult
	rec     telemetry.Recorder
}

func (q *queuedStage) sojourn(j int, arrival float64, measured bool) (s, done float64, failed, shed bool) {
	v := q.servers[j].serve(arrival)
	q.out.BusyTime[j] += v.service
	if measured {
		q.out.KeyLat.Record(v.sojourn)
		if !v.failed {
			q.rec.Observe(telemetry.StageQueueWait, v.wait)
			q.rec.Observe(telemetry.StageService, v.service)
		}
	}
	return v.sojourn, v.done, v.failed, false
}

// proxyStream simulates the proxy tier (nil without one): one more
// GI^X/M/1 stream at the aggregate key rate Λ, whatever ReadReplicas —
// replicated reads fan out behind the proxy's queue, not through it.
func proxyStream(cfg RequestConfig) (*ServerResult, error) {
	pm := cfg.ProxyModel
	if pm == nil {
		return nil, nil
	}
	if err := pm.Validate(); err != nil {
		return nil, fmt.Errorf("sim: proxy model: %w", err)
	}
	srv, err := stream(pm, pm.TotalKeyRate, ServerConfig{Keys: cmp.Or(cfg.KeysPerServer, 200000), Seed: cfg.Seed + 777000777})
	if err != nil {
		return nil, fmt.Errorf("sim: proxy stage: %w", err)
	}
	return srv, nil
}

// missPath is where a RAM miss goes, once stream base+3 says a key
// missed: to the disk tier if armed (stream base+8: the β coin, then the
// read), else to a backend fetch — Exp(µ_D) on stream base+4 plus any
// Database fault, one per miss or, coalesced, one per key window (stream
// base+6 draws each miss's key). base is 100, or 200 when integrated.
type missPath struct {
	ratio, muD float64
	inj        *fault.Injector
	rngMiss    *rand.Rand
	rngDB      *rand.Rand

	// Disk tier (nil disk without one).
	rngDisk *rand.Rand
	diskHit float64 // β = P{disk hit | RAM miss}
	disk    dist.Sampler

	// Coalescing: per-key in-flight fetch windows (nil without).
	rngKey        *rand.Rand
	zipf          *dist.Zipf
	inflightUntil []float64 // fetch window end per key (virtual s)
	inflightFail  []bool    // window's fetch failed: error fans out
}

func newMissPath(cfg RequestConfig, inj *fault.Injector, base uint64) (*missPath, error) {
	p := &missPath{
		ratio:   cfg.Model.MissRatio,
		muD:     cfg.Model.MuD,
		inj:     inj,
		rngMiss: dist.SubRand(cfg.Seed, base+3),
		rngDB:   dist.SubRand(cfg.Seed, base+4),
	}
	if cfg.Coalesce {
		nKeys := cfg.MissKeys
		if nKeys <= 0 {
			nKeys = 2000
		}
		if cfg.MissZipfS > 0 {
			var err error
			if p.zipf, err = dist.NewZipf(nKeys, cfg.MissZipfS); err != nil {
				return nil, err
			}
		}
		p.rngKey = dist.SubRand(cfg.Seed, base+6)
		p.inflightUntil = make([]float64, nKeys)
		p.inflightFail = make([]bool, nKeys)
	}
	if e := cfg.Extstore; e != nil {
		if e.DiskHitFraction < 0 || e.DiskHitFraction > 1 || e.Read == nil {
			return nil, fmt.Errorf("sim: extstore needs a read law and a disk-hit fraction in [0, 1], got %v", e.DiskHitFraction)
		}
		p.rngDisk, p.diskHit, p.disk = dist.SubRand(cfg.Seed, base+8), e.DiskHitFraction, e.Read
	}
	return p, nil
}

// misses draws whether one answered key misses the RAM cache.
func (p *missPath) misses() bool {
	return p.ratio > 0 && p.rngMiss.Float64() < p.ratio
}

// serve resolves one miss at virtual time now: the penalty it pays, the
// stage that charged it (disk_read, coalesce_wait or miss_penalty), and
// whether the caller saw an error instead of a value.
func (p *missPath) serve(now float64) (d float64, stage telemetry.Stage, failed bool) {
	if p.disk != nil && p.rngDisk.Float64() < p.diskHit {
		// Disk hit: a local segment read — no backend fetch, no
		// coalescing window, no Database fault.
		return p.disk.Sample(p.rngDisk), telemetry.StageDiskRead, false
	}
	k := -1 // the miss's key identity, on coalesced runs
	if p.zipf != nil {
		k = p.zipf.SampleInt(p.rngKey)
	} else if p.rngKey != nil {
		k = p.rngKey.IntN(len(p.inflightUntil))
	}
	if k >= 0 && p.inflightUntil[k] > now {
		// Delayed hit: the key's fetch is in flight, so this miss pays the
		// residual wait; the leader's fault delay is inside the window and
		// its failure fans out to everyone attached.
		return p.inflightUntil[k] - now, telemetry.StageCoalesceWait, p.inflightFail[k]
	}
	// A backend fetch, naive or a coalesced leader.
	d = p.rngDB.ExpFloat64() / p.muD
	if act := p.inj.At(fault.Database, now); act.Faulted() {
		// An outage fails the fill after the delay: the key goes unanswered.
		d += act.Delay
		failed = act.Outcome != fault.OK
	}
	if k >= 0 {
		p.inflightUntil[k], p.inflightFail[k] = now+d, failed
	}
	return d, telemetry.StageMissPenalty, failed
}
