// Package fault is the deterministic fault-injection seam shared by the
// live TCP stack (internal/server, internal/backend) and the simulators
// (internal/sim). A Schedule is a list of Rules — per-server slowdowns,
// stalls, connection resets/refusals, probabilistic drops, and flap
// cycles, each active in a time window — and an Injector evaluates the
// schedule against a clock. Because every probabilistic decision is a
// pure hash of (seed, target, per-target query counter), the same
// schedule walked with the same query sequence yields bit-identical
// fault decisions on every plane: the sim plane asks in virtual time,
// the live plane in wall time since Clock.Start, and both see the same
// injected sequence. That is what lets crossplane put "healthy",
// "sim-under-fault" and "live-under-fault" in one table.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"memqlat/internal/flagspec"
)

// Special Rule.Server targets.
const (
	// AllServers targets every Memcached server (not the database).
	AllServers = -1
	// Database targets the back-end database instead of a cache server.
	Database = -2
)

// Kind enumerates the fault-point taxonomy.
type Kind int

const (
	// KindSlow adds Delay to every operation in the window — a browned-out
	// server (slow NIC, CPU contention, noisy neighbor).
	KindSlow Kind = iota + 1
	// KindStall holds every operation arriving in the window until the
	// window ends — a GC pause / packet blackhole that later drains.
	KindStall
	// KindDrop swallows the request with probability P: the server does
	// the work but the reply is lost, so the client eats its op timeout.
	KindDrop
	// KindReset closes the connection mid-operation — a crashed process
	// or an RST-ing middlebox.
	KindReset
	// KindRefuse rejects new connections and fails operations fast — a
	// dead or not-yet-listening server.
	KindRefuse
	// KindFlap alternates Refuse-down and healthy-up phases of Period
	// seconds with down fraction Duty — a crash-looping server.
	KindFlap
)

// kindNames are the schedule-spec keywords, indexed by Kind.
var kindNames = [...]string{KindSlow: "slow", KindStall: "stall", KindDrop: "drop",
	KindReset: "reset", KindRefuse: "refuse", KindFlap: "flap"}

// String returns the schedule-spec keyword for the kind.
func (k Kind) String() string {
	if k >= KindSlow && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule is one fault point: a kind, a target, a time window, and the
// kind's parameters. The zero Until means "until the end of the run".
type Rule struct {
	// Server is the target: a cache-server index, AllServers, or Database.
	Server int
	// Kind selects the fault behavior.
	Kind Kind
	// From / Until bound the active window in seconds from the run epoch
	// (Clock.Start on the live plane, stream start in the simulators).
	From, Until float64
	// Delay is the added latency in seconds (KindSlow), and for KindDrop
	// the latency at which the loss surfaces to the caller in the
	// simulators (a stand-in for the client's op timeout; the live plane
	// needs no stand-in — the client really times out).
	Delay float64
	// P is the per-operation probability for slow/stall/drop/reset
	// rules (default 1 = every operation). Refuse and flap ignore it:
	// the accept loop needs a counter-free decision, so their windows
	// are all-or-nothing.
	P float64
	// Period / Duty parameterize KindFlap: each Period seconds the server
	// is down for the first Duty fraction (default Duty 0.5).
	Period, Duty float64
}

// active reports whether the rule's window covers now (and, for flap
// rules, whether now falls in the down phase).
func (r Rule) active(now float64) bool {
	if math.IsInf(now, -1) || now < r.From {
		return false
	}
	if r.Until > 0 && now >= r.Until {
		return false
	}
	if r.Kind == KindFlap {
		period := r.Period
		if period <= 0 {
			return false
		}
		duty := r.Duty
		if duty <= 0 {
			duty = 0.5
		}
		phase := math.Mod(now-r.From, period)
		return phase < duty*period
	}
	return true
}

// matches reports whether the rule targets server.
func (r Rule) matches(server int) bool {
	if r.Server == AllServers {
		return server >= 0
	}
	return r.Server == server
}

// Validate checks the rule's parameters.
func (r Rule) Validate() error {
	if r.Server < Database {
		return fmt.Errorf("fault: server %d out of range", r.Server)
	}
	switch r.Kind {
	case KindSlow:
		if r.Delay <= 0 {
			return fmt.Errorf("fault: slow rule needs delay > 0")
		}
	case KindStall:
		if r.Until <= r.From {
			return fmt.Errorf("fault: stall rule needs until > from")
		}
	case KindDrop:
		if r.P < 0 || r.P > 1 {
			return fmt.Errorf("fault: drop p=%v out of [0,1]", r.P)
		}
	case KindReset, KindRefuse:
	case KindFlap:
		if r.Period <= 0 {
			return fmt.Errorf("fault: flap rule needs period > 0")
		}
		if r.Duty < 0 || r.Duty > 1 {
			return fmt.Errorf("fault: flap duty=%v out of [0,1]", r.Duty)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(r.Kind))
	}
	if r.From < 0 || r.Delay < 0 {
		return fmt.Errorf("fault: negative from/delay")
	}
	if r.Until < 0 {
		return fmt.Errorf("fault: negative until")
	}
	for _, v := range []float64{r.From, r.Until, r.Delay, r.P, r.Period, r.Duty} {
		if math.IsNaN(v) {
			return fmt.Errorf("fault: NaN parameter")
		}
	}
	return nil
}

// String renders the rule in schedule-spec syntax; ParseSchedule reads
// it back to an equal rule.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Kind.String())
	switch r.Server {
	case AllServers:
		b.WriteString(":srv=all")
	case Database:
		b.WriteString(":srv=db")
	default:
		fmt.Fprintf(&b, ":srv=%d", r.Server)
	}
	if r.From > 0 {
		b.WriteString(",from=" + seconds(r.From))
	}
	if r.Until > 0 {
		b.WriteString(",until=" + seconds(r.Until))
	}
	if r.Delay > 0 {
		b.WriteString(",delay=" + seconds(r.Delay))
	}
	if r.P != 1 {
		fmt.Fprintf(&b, ",p=%g", r.P)
	}
	if r.Period != 0 {
		b.WriteString(",period=" + seconds(r.Period))
	}
	if r.Duty != 0 {
		fmt.Fprintf(&b, ",duty=%g", r.Duty)
	}
	return b.String()
}

// seconds renders v for flagspec.Seconds: as a Go duration when that reads
// back exactly, else as bare seconds.
func seconds(v float64) string {
	if d := time.Duration(v * 1e9); d.Seconds() == v {
		return d.String()
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Schedule is a seeded set of fault points — the unit a Scenario
// carries. The zero value is the healthy schedule.
type Schedule struct {
	// Rules lists the fault points (evaluated in order).
	Rules []Rule
	// Seed roots the probabilistic decisions (KindDrop); two injectors
	// built from equal schedules make identical decisions.
	Seed uint64
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Rules) == 0 }

// Validate checks every rule.
func (s Schedule) Validate() error {
	for i, r := range s.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d (%s): %w", i, r, err)
		}
	}
	return nil
}

// String renders the schedule in spec syntax (semicolon-separated).
func (s Schedule) String() string {
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ";")
}

// ParseSchedule parses the CLI spec syntax: semicolon-separated rules,
// each "kind:key=value,..." in the flagspec grammar. Keys: srv (index,
// "all" or "db"), from, until, delay, period (durations), p, duty.
//
//	stall:srv=1,from=5s,until=10s
//	slow:srv=all,delay=200us;drop:srv=0,p=0.3,delay=50ms
//	flap:srv=2,period=2s,duty=0.5
func ParseSchedule(spec string) (Schedule, error) {
	var s Schedule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return Schedule{}, fmt.Errorf("fault: rule %q: %w", part, err)
		}
		s.Rules = append(s.Rules, r)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

func parseRule(part string) (Rule, error) {
	head, rest, _ := strings.Cut(part, ":")
	head = strings.TrimSpace(head)
	r := Rule{Server: AllServers, P: 1}
	for k := KindSlow; int(k) < len(kindNames); k++ {
		if kindNames[k] == head {
			r.Kind = k
		}
	}
	if r.Kind == 0 {
		return r, fmt.Errorf("unknown kind %q", head)
	}
	secs := map[string]*float64{"from": &r.From, "until": &r.Until, "delay": &r.Delay, "period": &r.Period}
	floats := map[string]*float64{"p": &r.P, "duty": &r.Duty}
	err := flagspec.Scan(rest, func(k, v string) (err error) {
		switch {
		case k == "srv" && v == "all":
			r.Server = AllServers
		case k == "srv" && v == "db":
			r.Server = Database
		case k == "srv":
			r.Server, err = strconv.Atoi(v)
		case secs[k] != nil:
			*secs[k], err = flagspec.Seconds(v)
		case floats[k] != nil:
			*floats[k], err = strconv.ParseFloat(v, 64)
		default:
			err = errors.New("unknown parameter")
		}
		return err
	})
	return r, err
}

// Outcome classifies what the injected fault does to one operation.
type Outcome int

const (
	// OK: the operation proceeds (possibly after Action.Delay).
	OK Outcome = iota
	// Drop: the reply is lost; the caller perceives a timeout.
	Drop
	// Reset: the connection is torn down mid-operation.
	Reset
	// Refuse: the server rejects the operation/connection immediately.
	Refuse
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Refuse:
		return "refuse"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Action is the injector's verdict for one operation. Its law on a
// cache-server visit, which every plane reads the same way, with the
// verdict taken when the server starts the visit: a Refused visit is not
// served, adds no work, and its caller fails at that start; a
// Lost visit is served with its own service only, its reply is lost, and
// its caller fails after the larger of its sojourn and Delay; a served
// visit (OK) holds the server for its service plus Work. The database
// keeps its own law: the delay, then a failure on any outcome but OK.
type Action struct {
	// Delay is extra latency in seconds: served work for an OK outcome
	// (slow, stall), the caller's timeout stand-in for a Drop.
	Delay float64
	// Outcome is what happens to the operation.
	Outcome Outcome
}

// Faulted reports whether the action perturbs the operation at all.
func (a Action) Faulted() bool { return a.Delay > 0 || a.Outcome != OK }

// Refused reports a reset or refused connection.
func (a Action) Refused() bool { return a.Outcome == Reset || a.Outcome == Refuse }

// Lost reports a dropped reply.
func (a Action) Lost() bool { return a.Outcome == Drop }

// Work is the time the verdict adds to the visit's service: its delay
// when the visit is served, zero when it is lost or refused.
func (a Action) Work() float64 {
	if a.Outcome != OK {
		return 0
	}
	return a.Delay
}

// Injector evaluates a Schedule. It is safe for concurrent use: the
// only mutable state is the per-target query counters feeding the
// deterministic drop decisions.
type Injector struct {
	schedule Schedule
	// counts[target+2] is the number of At queries for the target so far
	// (offset 2 covers Database/AllServers).
	counts []atomic.Uint64
}

// NewInjector builds an injector for a deployment of `servers` cache
// servers (plus the database). A nil injector is the healthy system —
// every entry point accepts one.
func NewInjector(s Schedule, servers int) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, r := range s.Rules {
		if r.Server >= servers {
			return nil, fmt.Errorf("fault: rule %s targets server %d of %d", r, r.Server, servers)
		}
	}
	return &Injector{
		schedule: s,
		counts:   make([]atomic.Uint64, servers+2),
	}, nil
}

// At evaluates the schedule for one operation at target `server`
// (cache-server index or Database) at `now` seconds since the run
// epoch. Delays from multiple matching rules add; the first non-OK
// outcome in rule order wins. A nil injector always returns the
// zero (healthy) Action.
func (in *Injector) At(server int, now float64) Action {
	var act Action
	if in == nil || len(in.schedule.Rules) == 0 {
		return act
	}
	n := in.counts[server+2].Add(1) - 1
	for i, r := range in.schedule.Rules {
		if !r.matches(server) || !r.active(now) {
			continue
		}
		// Probabilistic rules (p < 1) draw from the counter hash so the
		// n-th operation gets the same verdict on every plane; p=0
		// means every operation.
		hit := func() bool {
			if r.P == 0 || r.P >= 1 {
				return true
			}
			return decide(in.schedule.Seed, uint64(i), uint64(server+2), n) < r.P
		}
		switch r.Kind {
		case KindSlow:
			if hit() {
				act.Delay += r.Delay
			}
		case KindStall:
			if d := r.Until - now; d > 0 && hit() {
				act.Delay += d
			}
		case KindDrop:
			if act.Outcome == OK && hit() {
				act.Delay += r.Delay
				act.Outcome = Drop
			}
		case KindReset:
			if act.Outcome == OK && hit() {
				act.Outcome = Reset
			}
		case KindRefuse, KindFlap:
			if act.Outcome == OK {
				act.Outcome = Refuse
			}
		}
	}
	return act
}

// RefusedAt reports whether server is refusing new connections at now
// (refuse rules and flap down-phases). Unlike At it does not advance
// the per-target query counter: the live accept loop polls it per
// connection attempt, and those polls must not perturb the per-
// operation counter stream that keeps planes aligned.
func (in *Injector) RefusedAt(server int, now float64) bool {
	if in == nil {
		return false
	}
	for _, r := range in.schedule.Rules {
		if !r.matches(server) || !r.active(now) {
			continue
		}
		if r.Kind == KindRefuse || r.Kind == KindFlap {
			return true
		}
	}
	return false
}

// decide hashes (seed, rule, target, query counter) into [0,1) — a
// splitmix64 finalizer, so the n-th query for a target gets the same
// verdict on every plane.
func decide(seed, rule, target, n uint64) float64 {
	x := seed ^ rule*0x9e3779b97f4a7c15 ^ target*0xbf58476d1ce4e5b9 ^ n*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Clock is the live plane's run epoch: servers evaluate fault windows
// against seconds-since-Start. Before Start (e.g. during populate) Now
// reports -Inf so no window is active.
type Clock struct {
	epoch atomic.Int64 // UnixNano; 0 = not started
}

// Start sets the epoch to the current instant (idempotent: the first
// call wins).
func (c *Clock) Start() {
	c.epoch.CompareAndSwap(0, time.Now().UnixNano())
}

// Now returns seconds since Start, or -Inf before Start.
func (c *Clock) Now() float64 {
	e := c.epoch.Load()
	if e == 0 {
		return math.Inf(-1)
	}
	return time.Duration(time.Now().UnixNano() - e).Seconds()
}

// Point binds an injector to one target and a clock — the single-value
// handle the server and backend thread through their options.
type Point struct {
	// Inj is the shared injector (nil = healthy).
	Inj *Injector
	// Server is the target index (or Database).
	Server int
	// Now reports seconds since the run epoch.
	Now func() float64
}

// Eval evaluates the point for one operation. A nil point is healthy.
func (p *Point) Eval() Action {
	if p == nil || p.Inj == nil || p.Now == nil {
		return Action{}
	}
	return p.Inj.At(p.Server, p.Now())
}

// EvalAt evaluates the point for one operation that its target starts at
// wall time t, which lies ahead of now for a queued command.
func (p *Point) EvalAt(t time.Time) Action {
	if p == nil || p.Inj == nil || p.Now == nil {
		return Action{}
	}
	return p.Inj.At(p.Server, p.Now()+time.Until(t).Seconds())
}

// Resilience is the one recovery policy spec: a Scenario carries it, the
// client (live plane) and the composition simulator interpret the same
// knobs, and the proxy's failover breaker runs its defaults, so "what
// does this policy buy under this schedule?" is a cross-plane question.
// The zero value disables everything.
type Resilience struct {
	// Retries is the number of extra attempts for idempotent reads after
	// a transport-level failure (0 = off).
	Retries int
	// RetryBackoff is the base backoff in seconds (see Backoff; default
	// 1ms).
	RetryBackoff float64
	// HedgeDelay fires a hedged read after this many seconds (0 = use
	// HedgePercentile).
	HedgeDelay float64
	// HedgePercentile, when in (0,1), fires the hedge once the primary
	// exceeds this quantile of observed read latency (the percentile-
	// based policy; 0 with HedgeDelay 0 = hedging off).
	HedgePercentile float64
	// BreakerThreshold opens a per-server circuit breaker when the
	// failure rate over BreakerWindow operations reaches it (0 = off).
	BreakerThreshold float64
	// BreakerWindow is the outcome-window size in operations (default 20).
	BreakerWindow int
	// BreakerCooldown is the open-state duration in seconds before a
	// half-open probe (default 1s).
	BreakerCooldown float64
}

// The policy defaults, which WithDefaults fills in.
const (
	defaultRetryBackoff    = 1e-3
	defaultBreakerWindow   = 20
	defaultBreakerCooldown = 1
	// maxBackoffFactor caps a retry's backoff at this many RetryBackoffs.
	maxBackoffFactor = 8
	// DefaultBreakerThreshold is the trip point of a breaker no spec
	// configures: the proxy's failover policy.
	DefaultBreakerThreshold = 0.5
)

// Enabled reports whether any policy is active.
func (r Resilience) Enabled() bool {
	return r.Retries > 0 || r.Hedging() || r.BreakerThreshold > 0
}

// Hedging reports whether reads are hedged.
func (r Resilience) Hedging() bool { return r.HedgeDelay > 0 || r.HedgePercentile > 0 }

// Validate checks that every plane reads r the same way: counts and
// durations finite and non-negative, HedgePercentile in [0,1) and
// BreakerThreshold in [0,1].
func (r Resilience) Validate() error {
	if r.Retries < 0 || r.BreakerWindow < 0 {
		return fmt.Errorf("fault: resilience retries=%d window=%d: counts must be >= 0", r.Retries, r.BreakerWindow)
	}
	for _, d := range []float64{r.RetryBackoff, r.HedgeDelay, r.BreakerCooldown} {
		if !(d >= 0) || math.IsInf(d, 1) {
			return fmt.Errorf("fault: resilience duration %vs must be finite and >= 0", d)
		}
	}
	if !(r.HedgePercentile >= 0 && r.HedgePercentile < 1) {
		return fmt.Errorf("fault: hedge percentile %v out of [0,1)", r.HedgePercentile)
	}
	if !(r.BreakerThreshold >= 0 && r.BreakerThreshold <= 1) {
		return fmt.Errorf("fault: breaker threshold %v out of [0,1]", r.BreakerThreshold)
	}
	return nil
}

// WithDefaults fills the dependent zero values of enabled policies.
func (r Resilience) WithDefaults() Resilience {
	if r.Retries > 0 && r.RetryBackoff == 0 {
		r.RetryBackoff = defaultRetryBackoff
	}
	if r.BreakerThreshold > 0 {
		if r.BreakerWindow == 0 {
			r.BreakerWindow = defaultBreakerWindow
		}
		if r.BreakerCooldown == 0 {
			r.BreakerCooldown = defaultBreakerCooldown
		}
	}
	return r
}

// Backoff is the longest wait in seconds before retry k (1-based):
// RetryBackoff doubled per attempt, capped at 8 RetryBackoffs. The
// simulator waits exactly this; the live client draws a full jitter in
// [0, Backoff(k)).
func (r Resilience) Backoff(k int) float64 {
	return r.RetryBackoff * math.Min(math.Pow(2, float64(k-1)), maxBackoffFactor)
}
