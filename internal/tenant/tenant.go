// Package tenant is the multi-tenant QoS layer: tenants are extracted
// from a key prefix ("acme:user17" belongs to tenant "acme"), and each
// tenant owns a deterministic token bucket for op and byte quotas plus
// a priority class that decides what happens when the bucket runs dry.
//
// The bucket math is a pure function of the (now, ops, bytes) call
// sequence — time is an explicit argument, never sampled inside — so
// the exact same limiter runs on the composition sim's virtual clock
// and on the live plane's wall clock (fault.Clock seconds) and makes
// identical admit/shed decisions for identical arrival sequences.
// That is what lets the model plane price shed traffic out of λ and
// still agree with the live proxy.
//
// Classes:
//
//	gold   — guaranteed: the bucket meters usage but never sheds.
//	silver — (default) shed-before-queue once the bucket is empty.
//	bronze — silver without burst headroom: the bucket caps at a
//	         single op's worth, smoothing bronze tenants to their
//	         sustained rate.
package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"memqlat/internal/flagspec"
	"memqlat/internal/stats"
)

// Tenant classes. The class decides shed behavior, not routing.
const (
	ClassGold   = "gold"
	ClassSilver = "silver"
	ClassBronze = "bronze"
)

// DefaultName is the catch-all tenant that owns every key without a
// declared prefix. It is unlimited unless a Spec named "*" overrides
// it.
const DefaultName = "*"

// ShedMsg is the reply-line body a proxy sends for a shed command; the
// client surfaces it as *protocol.ServerError and loadgen classifies
// sheds by matching it.
const ShedMsg = "SERVER_ERROR tenant over quota"

// Spec declares one tenant.
type Spec struct {
	// Name is the key prefix (keys "name:..." belong to this tenant).
	// "*" configures the catch-all tenant for unprefixed keys.
	Name string
	// Class is gold, silver or bronze (default silver).
	Class string
	// Rate is the sustained op (key) budget per second; 0 = unlimited.
	Rate float64
	// Burst is the op bucket depth (default Rate/50, floored at 1 —
	// 20 ms of headroom). Bronze tenants are clamped to 1.
	Burst float64
	// ByteRate / ByteBurst quota stored bytes per second; 0 = unlimited.
	ByteRate  float64
	ByteBurst float64
	// Share is this tenant's fraction of offered load in generated
	// mixes (model pricing, sim draws, loadgen). Shares normalize over
	// the declared tenants; all zero means an even split.
	Share float64
}

func (s Spec) withDefaults() (Spec, error) {
	if s.Name == "" {
		return s, fmt.Errorf("tenant: empty tenant name")
	}
	if strings.ContainsAny(s.Name, ":,;= \t\r\n") {
		return s, fmt.Errorf("tenant: name %q contains reserved characters", s.Name)
	}
	switch s.Class {
	case "":
		s.Class = ClassSilver
	case ClassGold, ClassSilver, ClassBronze:
	default:
		return s, fmt.Errorf("tenant: unknown class %q (known: gold, silver, bronze)", s.Class)
	}
	for _, v := range []struct {
		name string
		v    float64
	}{{"rate", s.Rate}, {"burst", s.Burst}, {"byterate", s.ByteRate}, {"byteburst", s.ByteBurst}} {
		if v.v < 0 || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return s, fmt.Errorf("tenant: %s: %s %v out of range", s.Name, v.name, v.v)
		}
	}
	if s.Share < 0 || s.Share > 1 || math.IsNaN(s.Share) {
		return s, fmt.Errorf("tenant: %s: share %v out of [0,1]", s.Name, s.Share)
	}
	if s.Burst <= 0 {
		s.Burst = math.Max(1, s.Rate/50)
	}
	if s.Class == ClassBronze {
		s.Burst = math.Min(s.Burst, 1)
	}
	if s.ByteRate > 0 && s.ByteBurst <= 0 {
		s.ByteBurst = math.Max(1, s.ByteRate/50)
	}
	return s, nil
}

// limited reports whether the spec's bucket ever sheds.
func (s Spec) limited() bool {
	return s.Class != ClassGold && (s.Rate > 0 || s.ByteRate > 0)
}

// AdmittedRate is the model plane's pricing of one tenant: the rate the
// bucket sustains out of offered ops/s. Gold and unlimited tenants pass
// through; limited tenants clip at Rate.
func (s Spec) AdmittedRate(offered float64) float64 {
	if s.Class == ClassGold || s.Rate <= 0 {
		return offered
	}
	return math.Min(offered, s.Rate)
}

// ParseSpecs parses the CLI/config form: semicolon-separated
// "name:key=value,..." entries, the options in the flagspec grammar,
// e.g.
//
//	acme:class=gold,rate=500,burst=50,share=0.5;evil:rate=200,share=0.5
//
// Keys: class, rate, burst, byterate, byteburst, share. A bare "name"
// declares an unlimited tracked tenant. The specs are validated as New
// does, so an accepted string always builds a Limiter.
func ParseSpecs(s string) ([]Spec, error) {
	var specs []Spec
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, opts, _ := strings.Cut(entry, ":")
		sp := Spec{Name: strings.TrimSpace(name)}
		floats := map[string]*float64{"rate": &sp.Rate, "burst": &sp.Burst, "byterate": &sp.ByteRate,
			"byteburst": &sp.ByteBurst, "share": &sp.Share}
		err := flagspec.Scan(opts, func(k, v string) (err error) {
			switch f := floats[k]; {
			case k == "class":
				sp.Class = v
			case f != nil:
				*f, err = strconv.ParseFloat(v, 64)
			default:
				err = errors.New("unknown option")
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", sp.Name, err)
		}
		specs = append(specs, sp)
	}
	if _, err := New(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// Shares returns the declared specs' normalized offered-load shares:
// they sum to 1, with an even split when every Share is zero. Specs
// named "*" (the catch-all) are excluded from generated mixes and get
// share 0.
func Shares(specs []Spec) []float64 {
	out := make([]float64, len(specs))
	sum, n := 0.0, 0
	for i, sp := range specs {
		if sp.Name == DefaultName {
			continue
		}
		out[i] = sp.Share
		sum += sp.Share
		n++
	}
	for i, sp := range specs {
		if sp.Name == DefaultName {
			continue
		}
		if sum > 0 {
			out[i] /= sum
		} else if n > 0 {
			out[i] = 1 / float64(n)
		}
	}
	return out
}

// Tenant is one tenant's live state: the token buckets, counters and a
// latency histogram. All methods are safe for concurrent use; the
// bucket itself is deterministic given the call sequence.
type Tenant struct {
	spec Spec

	mu         sync.Mutex
	tokens     float64
	byteTokens float64
	last       float64
	started    bool // first non-negative now seen
	admitted   int64
	shed       int64
	admBytes   int64
	shedBytes  int64
	lat        *stats.Histogram
}

func newTenant(sp Spec) *Tenant {
	return &Tenant{
		spec:       sp,
		tokens:     sp.Burst,
		byteTokens: sp.ByteBurst,
		lat:        stats.NewHistogram(),
	}
}

// Name returns the tenant's key prefix.
func (t *Tenant) Name() string { return t.spec.Name }

// Class returns the tenant's priority class.
func (t *Tenant) Class() string { return t.spec.Class }

// Admit decides whether ops keys totalling nbytes stored bytes may pass
// at time now (seconds on the run clock; virtual or wall). A negative
// or -Inf now means the run clock has not started (fault.Clock before
// Start): everything is admitted unmetered so cache population runs
// unthrottled and every plane starts throttling at the same epoch with
// full buckets.
//
// Gold tenants always admit (the bucket only meters). Silver and
// bronze shed — without queuing — when either bucket cannot cover the
// charge.
func (t *Tenant) Admit(now float64, ops, nbytes int) bool {
	if ops <= 0 {
		ops = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if now < 0 {
		t.admitted += int64(ops)
		t.admBytes += int64(nbytes)
		return true
	}
	if !t.started {
		// First observation on a started clock: the bucket was filled
		// at the epoch, so refill from 0, not from a stale wall offset.
		t.started = true
		t.last = 0
	}
	if now > t.last {
		dt := now - t.last
		t.tokens = math.Min(t.spec.Burst, t.tokens+dt*t.spec.Rate)
		t.byteTokens = math.Min(t.spec.ByteBurst, t.byteTokens+dt*t.spec.ByteRate)
		t.last = now
	}
	opCost, byteCost := float64(ops), float64(nbytes)
	if t.spec.limited() {
		short := (t.spec.Rate > 0 && t.tokens < opCost) ||
			(t.spec.ByteRate > 0 && t.byteTokens < byteCost)
		if short {
			t.shed += int64(ops)
			t.shedBytes += int64(nbytes)
			return false
		}
	}
	if t.spec.Rate > 0 {
		t.tokens = math.Max(0, t.tokens-opCost)
	}
	if t.spec.ByteRate > 0 {
		t.byteTokens = math.Max(0, t.byteTokens-byteCost)
	}
	t.admitted += int64(ops)
	t.admBytes += int64(nbytes)
	return true
}

// Observe records one admitted command's latency (seconds).
func (t *Tenant) Observe(sec float64) {
	t.mu.Lock()
	t.lat.Record(sec)
	t.mu.Unlock()
}

// Snapshot is a point-in-time copy of a tenant's counters.
type Snapshot struct {
	Name       string
	Class      string
	Rate       float64
	Burst      float64
	ByteRate   float64
	ByteBurst  float64
	Share      float64
	Tokens     float64
	ByteTokens float64
	Admitted   int64
	Shed       int64
	AdmBytes   int64
	ShedBytes  int64
}

// Snapshot copies the counters and current bucket levels.
func (t *Tenant) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Snapshot{
		Name:       t.spec.Name,
		Class:      t.spec.Class,
		Rate:       t.spec.Rate,
		Burst:      t.spec.Burst,
		ByteRate:   t.spec.ByteRate,
		ByteBurst:  t.spec.ByteBurst,
		Share:      t.spec.Share,
		Tokens:     t.tokens,
		ByteTokens: t.byteTokens,
		Admitted:   t.admitted,
		Shed:       t.shed,
		AdmBytes:   t.admBytes,
		ShedBytes:  t.shedBytes,
	}
}

// Latency clones the tenant's latency histogram.
func (t *Tenant) Latency() *stats.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lat.Clone()
}

// Limiter maps keys to tenants and holds their buckets. The tenant map
// is immutable after New, so FromKey is a lock-free read; per-tenant
// state locks independently.
type Limiter struct {
	byName map[string]*Tenant
	order  []*Tenant // declared order, catch-all excluded unless declared
	def    *Tenant
}

// New validates specs and builds a limiter. Duplicate names are
// rejected; a spec named "*" overrides the implicit unlimited
// catch-all for unprefixed keys.
func New(specs []Spec) (*Limiter, error) {
	l := &Limiter{byName: make(map[string]*Tenant, len(specs)+1)}
	for _, sp := range specs {
		sp, err := sp.withDefaults()
		if err != nil {
			return nil, err
		}
		if _, dup := l.byName[sp.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant %q", sp.Name)
		}
		t := newTenant(sp)
		l.byName[sp.Name] = t
		l.order = append(l.order, t)
		if sp.Name == DefaultName {
			l.def = t
		}
	}
	if l.def == nil {
		def, err := Spec{Name: DefaultName, Class: ClassGold}.withDefaults()
		if err != nil {
			return nil, err
		}
		l.def = newTenant(def)
		l.byName[DefaultName] = l.def
	}
	return l, nil
}

// FromKey resolves the owning tenant of a key: the declared tenant
// whose name matches the prefix before the first ':', else the
// catch-all. Zero-alloc on the hot path.
func (l *Limiter) FromKey(key []byte) *Tenant {
	i := bytes.IndexByte(key, ':')
	if i <= 0 {
		return l.def
	}
	if t, ok := l.byName[string(key[:i])]; ok {
		return t
	}
	return l.def
}

// Default returns the catch-all tenant.
func (l *Limiter) Default() *Tenant { return l.def }

// Tenants returns the declared tenants in declaration order.
func (l *Limiter) Tenants() []*Tenant { return l.order }

// Snapshots returns per-tenant snapshots: declared tenants in order,
// then the implicit catch-all if it saw any traffic.
func (l *Limiter) Snapshots() []Snapshot {
	out := make([]Snapshot, 0, len(l.order)+1)
	declaredDefault := false
	for _, t := range l.order {
		if t == l.def {
			declaredDefault = true
		}
		out = append(out, t.Snapshot())
	}
	if !declaredDefault {
		if s := l.def.Snapshot(); s.Admitted > 0 || s.Shed > 0 {
			out = append(out, s)
		}
	}
	return out
}

// String renders the limiter's declared specs back in ParseSpecs form
// (diagnostics, stats rows).
func (l *Limiter) String() string {
	var b strings.Builder
	for i, t := range l.order {
		if i > 0 {
			b.WriteByte(';')
		}
		sp := t.spec
		fmt.Fprintf(&b, "%s:class=%s", sp.Name, sp.Class)
		if sp.Rate > 0 {
			fmt.Fprintf(&b, ",rate=%g,burst=%g", sp.Rate, sp.Burst)
		}
		if sp.ByteRate > 0 {
			fmt.Fprintf(&b, ",byterate=%g,byteburst=%g", sp.ByteRate, sp.ByteBurst)
		}
		if sp.Share > 0 {
			fmt.Fprintf(&b, ",share=%g", sp.Share)
		}
	}
	return b.String()
}
