// Package loadgen is the mutilate-like workload driver for the live TCP
// stack (the paper uses mutilate, §5.1): its open loop paces the model's
// GI^X key stream, drawn by dist.Arrivals (batch gaps of a given law,
// core.Config.ArrivalFor on the live plane, geometric batches of
// concurrent probability q), picks keys by Zipf popularity, issues the
// gets through the client, and records per-key latency.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"memqlat/internal/client"
	"memqlat/internal/dist"
	"memqlat/internal/protocol"
	"memqlat/internal/stats"
	"memqlat/internal/tenant"
)

// KeyPrefix namespaces the keyspace every run populates and reads; the
// live plane sizes its tiers from the key length it implies.
const KeyPrefix = "mq:"

// Value-size laws for Options.ValueDist.
const (
	ValueDistFixed     = "fixed"
	ValueDistLogNormal = "lognormal"
)

// Options configures a run.
type Options struct {
	// Client issues the operations (required).
	Client *client.Client
	// Keys is the keyspace size (default 10_000).
	Keys int
	// ValueSize is the stored value size in bytes (default 100). Under
	// ValueDistLogNormal it is the mean of the size law instead.
	ValueSize int
	// ValueDist selects the per-key value-size law for Populate:
	// ValueDistFixed (the default) stores ValueSize bytes for every
	// key; ValueDistLogNormal draws each key's size from a lognormal
	// with mean ValueSize and shape ValueSigma, clamped to
	// [1, 8·ValueSize] — mixed object sizes as a disk tier would see
	// them. Sizes are a deterministic function of (Seed, key index).
	ValueDist string
	// ValueSigma is the lognormal shape parameter for
	// ValueDistLogNormal (default 0.5).
	ValueSigma float64
	// ZipfS skews key popularity (0 = uniform; the Facebook trace is
	// heavily skewed, ~1).
	ZipfS float64
	// Lambda is the closed loop's target aggregate key rate per second
	// (default 2000); the open loop's rate is set by Gaps and Q.
	Lambda float64
	// Gaps is the law of the gaps between open-loop batch arrivals, in
	// seconds; the open loop requires it. The model's law at a key rate
	// λ is core.Config.ArrivalFor(λ), which paces λ keys per second
	// (real-time sleeping cannot sustain the paper's 62.5 Kps per server
	// on one box — the virtual-time simulator covers that regime).
	Gaps dist.Interarrival
	// Q is the concurrent probability (geometric batch sizes).
	Q float64
	// MissRatio is the fraction of gets aimed at keys that were never
	// stored, forcing cache misses (relayed to the Filler if the client
	// has one).
	MissRatio float64
	// Ops is the number of key operations to issue (default 10_000).
	Ops int
	// Workers bounds in-flight operations (default 32).
	Workers int
	// Seed makes the key/gap streams deterministic.
	Seed uint64
	// UseGetThrough routes reads through Client.GetThrough so that
	// misses hit the backend (requires a Filler on the client).
	UseGetThrough bool
	// Observer, when set, is called from the pacer goroutine for every
	// issued key with its offset from run start — e.g. a trace.Writer
	// journaling the stream for later MRC analysis or replay.
	Observer func(offset time.Duration, key string)
	// ClosedLoop switches from open-loop pacing (the paper's and
	// mutilate's model) to Workers closed loops, each issuing after an
	// exponential think time of mean Workers/Lambda once its previous
	// operation completes. A closed loop cannot observe queueing collapse
	// (coordinated omission), so it measures the harness's own rate, not
	// the model's latency; no plane runs it.
	ClosedLoop bool
	// OnLatency, when set, receives every per-key end-to-end latency
	// (seconds) that lands in the Latency histogram — tenant-shed
	// refusals excluded, same as the histogram. It is called from
	// worker goroutines and must be safe for concurrent use; the SLO
	// watchdog's burn-rate accounting hangs off this hook.
	OnLatency func(seconds float64)
	// Tenants, when non-empty, draws a tenant per issued key from the
	// Share mix (rng stream 15) and prefixes the key with "<name>:" so
	// a QoS-armed proxy meters it against that tenant's bucket.
	// Populate stores every tenant's keyspace. A reply matching
	// tenant.ShedMsg counts as a tenant shed — in Issued but in none
	// of Hits/Misses/Errors, and excluded from every latency histogram
	// (an admission refusal is not a service latency).
	Tenants []tenant.Spec
}

// Result summarizes a run.
type Result struct {
	// Latency is the per-key end-to-end latency histogram.
	Latency *stats.Histogram
	// Hits / Misses / Errors count operation outcomes.
	Hits   int64
	Misses int64
	Errors int64
	// Shed counts the Errors that were breaker fast-fails
	// (client.ErrBreakerOpen) rather than transport failures.
	Shed int64
	// Issued is the number of operations attempted.
	Issued int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// TenantSheds counts operations the proxy's QoS layer refused with
	// tenant.ShedMsg (zero without Tenants / without a QoS proxy).
	TenantSheds int64
	// Tenants carries per-tenant outcomes in declaration order when
	// the run drew tenants (nil otherwise).
	Tenants []TenantStats
}

// TenantStats is one tenant's slice of a run.
type TenantStats struct {
	// Name echoes the spec.
	Name string
	// Issued counts the tenant's attempted operations; Sheds the
	// subset the proxy refused with tenant.ShedMsg.
	Issued int64
	Sheds  int64
	// Latency is the tenant's per-key latency histogram, sheds
	// excluded.
	Latency *stats.Histogram
}

// AchievedRate returns issued ops per second.
func (r *Result) AchievedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Issued) / r.Elapsed.Seconds()
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Client == nil {
		return out, errors.New("loadgen: Client is required")
	}
	if out.Keys == 0 {
		out.Keys = 10000
	}
	if out.Keys < 1 {
		return out, fmt.Errorf("loadgen: Keys=%d must be >= 1", out.Keys)
	}
	if out.ValueSize == 0 {
		out.ValueSize = 100
	}
	if out.ValueSize < 0 {
		return out, fmt.Errorf("loadgen: ValueSize=%d must be >= 0", out.ValueSize)
	}
	switch out.ValueDist {
	case "", ValueDistFixed:
	case ValueDistLogNormal:
		if out.ValueSigma == 0 {
			out.ValueSigma = 0.5
		}
		if out.ValueSigma < 0 {
			return out, fmt.Errorf("loadgen: ValueSigma=%v must be positive", out.ValueSigma)
		}
	default:
		return out, fmt.Errorf("loadgen: ValueDist=%q unknown (%s, %s)",
			out.ValueDist, ValueDistFixed, ValueDistLogNormal)
	}
	if out.ZipfS < 0 {
		return out, fmt.Errorf("loadgen: ZipfS=%v must be >= 0", out.ZipfS)
	}
	if out.Lambda == 0 {
		out.Lambda = 2000
	}
	if !(out.Lambda > 0) {
		return out, fmt.Errorf("loadgen: Lambda=%v must be positive", out.Lambda)
	}
	if out.MissRatio < 0 || out.MissRatio > 1 {
		return out, fmt.Errorf("loadgen: MissRatio=%v must be in [0, 1]", out.MissRatio)
	}
	if out.Ops == 0 {
		out.Ops = 10000
	}
	if out.Ops < 1 {
		return out, fmt.Errorf("loadgen: Ops=%d must be >= 1", out.Ops)
	}
	if out.Workers == 0 {
		out.Workers = 32
	}
	if out.Workers < 1 {
		return out, fmt.Errorf("loadgen: Workers=%d must be >= 1", out.Workers)
	}
	if len(out.Tenants) > 0 {
		if _, err := tenant.New(out.Tenants); err != nil {
			return out, fmt.Errorf("loadgen: %w", err)
		}
	}
	return out, nil
}

// keyName formats the i-th keyspace member.
func keyName(i int) string {
	return KeyPrefix + strconv.Itoa(i)
}

// missKeyName formats a key that Populate never stores.
func missKeyName(i int) string {
	return KeyPrefix + "miss:" + strconv.Itoa(i)
}

// Populate stores the whole keyspace through the client so that a
// subsequent Run observes the configured hit ratio.
func Populate(opts Options) error {
	o, err := opts.withDefaults()
	if err != nil {
		return err
	}
	rng := dist.SubRand(o.Seed, 1)
	sizes, maxSize, err := valueSizes(o)
	if err != nil {
		return err
	}
	value := make([]byte, maxSize)
	for i := range value {
		value[i] = 'a' + byte(rng.IntN(26))
	}
	// Every tenant gets its own full keyspace; the no-tenant run keeps
	// the single unprefixed one. Populate runs before the run clock
	// starts, so a -Inf tenant clock admits the stores unthrottled.
	prefixes := []string{""}
	if len(o.Tenants) > 0 {
		prefixes = prefixes[:0]
		for _, sp := range o.Tenants {
			prefixes = append(prefixes, sp.Name+":")
		}
	}
	for _, tp := range prefixes {
		for i := 0; i < o.Keys; i++ {
			v := value
			if sizes != nil {
				v = value[:sizes[i]]
			}
			if err := o.Client.Set(tp+keyName(i), v, 0, 0); err != nil {
				return fmt.Errorf("loadgen: populate key %s%d: %w", tp, i, err)
			}
		}
	}
	return nil
}

// valueSizes draws the per-key value sizes for Populate: nil (use
// ValueSize) under the fixed law, one size per key index under the
// lognormal law. The draws use their own rng stream (16) so arming
// the size law never perturbs the value bytes of a fixed-size run.
func valueSizes(o Options) ([]int, int, error) {
	if o.ValueDist != ValueDistLogNormal {
		return nil, o.ValueSize, nil
	}
	mean := float64(o.ValueSize)
	ln, err := dist.NewLogNormal(math.Log(mean)-o.ValueSigma*o.ValueSigma/2, o.ValueSigma)
	if err != nil {
		return nil, 0, fmt.Errorf("loadgen: %w", err)
	}
	rng := dist.SubRand(o.Seed, 16)
	sizes := make([]int, o.Keys)
	maxSize := 1
	for i := range sizes {
		s := int(ln.Sample(rng))
		if s < 1 {
			s = 1
		}
		if limit := 8 * o.ValueSize; s > limit {
			s = limit
		}
		sizes[i] = s
		if s > maxSize {
			maxSize = s
		}
	}
	return sizes, maxSize, nil
}

// Run executes the open-loop workload until Ops operations are issued
// or ctx is canceled.
func Run(ctx context.Context, opts Options) (*Result, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	popularity, err := dist.NewZipf(o.Keys, o.ZipfS)
	if err != nil {
		return nil, err
	}
	r := &run{
		o: o, ctx: ctx, popularity: popularity,
		res:       &Result{Latency: stats.NewHistogram()},
		tcount:    make([]tenantCount, len(o.Tenants)),
		tenantLat: make([]*stats.Histogram, len(o.Tenants)),
	}
	if len(o.Tenants) > 0 {
		if r.tenantMix, err = dist.NewWeighted(tenant.Shares(o.Tenants)); err != nil {
			return nil, fmt.Errorf("loadgen: tenant shares: %w", err)
		}
	}
	for i := range r.tenantLat {
		r.tenantLat[i] = stats.NewHistogram()
	}
	r.started = time.Now()
	if o.ClosedLoop {
		r.closedLoop()
	} else if err := r.openLoop(); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// run is one Run: its options, key law, outcome counters and the
// histograms the issuing goroutines fill.
type run struct {
	o          Options
	ctx        context.Context
	popularity *dist.Zipf
	tenantMix  *dist.Weighted // nil without tenants
	started    time.Time
	res        *Result

	mu                                            sync.Mutex // guards the latency histograms (and Observer in closed loop)
	hits, misses, errs, shed, issued, tenantSheds atomic.Int64
	tcount                                        []tenantCount
	tenantLat                                     []*stats.Histogram
}

type tenantCount struct{ issued, sheds atomic.Int64 }

// keyStreams are the rng streams one issuer draws its keys from: key
// rank, miss decision and tenant.
type keyStreams struct{ key, miss, tenant *rand.Rand }

// drawKey picks the next key — and, under a tenant mix, its tenant
// (-1 without tenants).
func (r *run) drawKey(s keyStreams) (string, int) {
	var key string
	if r.o.MissRatio > 0 && s.miss.Float64() < r.o.MissRatio {
		key = missKeyName(r.popularity.SampleInt(s.key))
	} else {
		key = keyName(r.popularity.SampleInt(s.key))
	}
	if r.tenantMix == nil {
		return key, -1
	}
	t := r.tenantMix.SampleInt(s.tenant)
	return r.o.Tenants[t].Name + ":" + key, t
}

// execute issues one get and records its outcome.
func (r *run) execute(key string, tIdx int) {
	t0 := time.Now()
	var err error
	var hit bool
	if r.o.UseGetThrough {
		_, hit, err = r.o.Client.GetThrough(r.ctx, key)
	} else {
		_, err = r.o.Client.Get(key)
		hit = err == nil
	}
	lat := time.Since(t0).Seconds()
	if tIdx >= 0 {
		r.tcount[tIdx].issued.Add(1)
	}
	var se *protocol.ServerError
	if errors.As(err, &se) && se.Line == tenant.ShedMsg {
		// Tenant QoS refusal: counted on its own, no latency sample
		// (the proxy answered from its admission check, not from
		// service).
		r.tenantSheds.Add(1)
		if tIdx >= 0 {
			r.tcount[tIdx].sheds.Add(1)
		}
		return
	}
	switch {
	case err == nil:
		if hit {
			r.hits.Add(1)
		} else {
			r.misses.Add(1)
		}
	case errors.Is(err, client.ErrCacheMiss):
		r.misses.Add(1)
	default:
		r.errs.Add(1)
		if errors.Is(err, client.ErrBreakerOpen) {
			r.shed.Add(1)
		}
	}
	r.mu.Lock()
	r.res.Latency.Record(lat)
	if tIdx >= 0 {
		r.tenantLat[tIdx].Record(lat)
	}
	r.mu.Unlock()
	if r.o.OnLatency != nil {
		r.o.OnLatency(lat)
	}
}

// finish fills the Result from the counters.
func (r *run) finish() *Result {
	res := r.res
	res.Elapsed = time.Since(r.started)
	res.Hits = r.hits.Load()
	res.Misses = r.misses.Load()
	res.Errors = r.errs.Load()
	res.Shed = r.shed.Load()
	res.Issued = r.issued.Load()
	res.TenantSheds = r.tenantSheds.Load()
	if len(r.o.Tenants) > 0 {
		res.Tenants = make([]TenantStats, len(r.o.Tenants))
		for i, sp := range r.o.Tenants {
			res.Tenants[i] = TenantStats{
				Name:    sp.Name,
				Issued:  r.tcount[i].issued.Load(),
				Sheds:   r.tcount[i].sheds.Load(),
				Latency: r.tenantLat[i],
			}
		}
	}
	return res
}

// openLoop paces batch arrivals (rng streams 11 and 12) onto Workers
// goroutines, drawing keys from streams 13–15.
func (r *run) openLoop() error {
	o := &r.o
	arrivals, err := dist.NewArrivals(o.Gaps, o.Q, dist.SubRand(o.Seed, 11), dist.SubRand(o.Seed, 12))
	if err != nil {
		return fmt.Errorf("loadgen: open loop: %w", err)
	}
	keys := keyStreams{dist.SubRand(o.Seed, 13), dist.SubRand(o.Seed, 14), dist.SubRand(o.Seed, 15)}

	type workItem struct {
		key  string
		tIdx int
	}
	work := make(chan workItem, o.Workers)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				r.execute(it.key, it.tIdx)
			}
		}()
	}

	// Pacer: open-loop batch arrivals on an absolute schedule. Sleeping
	// until cumulative deadlines (rather than per-gap) keeps the average
	// rate exact despite timer granularity and avoids busy-waiting,
	// which would starve the workers on small machines.
	next := time.Now()
pacing:
	for sent := 0; sent < o.Ops; sent++ {
		if gap, first := arrivals.Next(); first {
			if r.ctx.Err() != nil {
				break pacing
			}
			next = next.Add(time.Duration(gap * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		key, tIdx := r.drawKey(keys)
		select {
		case work <- workItem{key: key, tIdx: tIdx}:
			r.issued.Add(1)
			if o.Observer != nil {
				o.Observer(time.Since(r.started), key)
			}
		case <-r.ctx.Done():
			break pacing
		}
	}
	close(work)
	wg.Wait()
	return nil
}

// closedLoop issues ops from Workers independent closed loops, each
// waiting an exponential think time between its operations so the
// aggregate target rate is approximately Lambda. Worker id draws from
// rng streams 2000+id (think time) and 3000/4000/5000+id (keys).
func (r *run) closedLoop() {
	o := &r.o
	perWorkerRate := o.Lambda / float64(o.Workers)
	var wg sync.WaitGroup
	var quota atomic.Int64
	for w := 0; w < o.Workers; w++ {
		id := uint64(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rngThink := dist.SubRand(o.Seed, 2000+id)
			keys := keyStreams{dist.SubRand(o.Seed, 3000+id), dist.SubRand(o.Seed, 4000+id), dist.SubRand(o.Seed, 5000+id)}
			for {
				if quota.Add(1) > int64(o.Ops) {
					return
				}
				think := time.Duration(rngThink.ExpFloat64() / perWorkerRate * float64(time.Second))
				timer := time.NewTimer(think)
				select {
				case <-timer.C:
				case <-r.ctx.Done():
					timer.Stop()
					return
				}
				key, tIdx := r.drawKey(keys)
				r.issued.Add(1)
				if o.Observer != nil {
					r.mu.Lock()
					o.Observer(time.Since(r.started), key)
					r.mu.Unlock()
				}
				r.execute(key, tIdx)
			}
		}()
	}
	wg.Wait()
}
