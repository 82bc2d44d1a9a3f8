package fault

import (
	"math"
	"testing"
	"time"
)

func TestFaultParseSchedule(t *testing.T) {
	s, err := ParseSchedule("stall:srv=1,from=5s,until=10s;slow:srv=all,delay=200us;drop:srv=0,p=0.3,delay=50ms;flap:srv=db,period=2s,duty=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 4 {
		t.Fatalf("rules = %d", len(s.Rules))
	}
	r := s.Rules[0]
	if r.Kind != KindStall || r.Server != 1 || r.From != 5 || r.Until != 10 {
		t.Errorf("stall rule = %+v", r)
	}
	if s.Rules[1].Kind != KindSlow || s.Rules[1].Server != AllServers || math.Abs(s.Rules[1].Delay-200e-6) > 1e-12 {
		t.Errorf("slow rule = %+v", s.Rules[1])
	}
	if s.Rules[2].P != 0.3 || s.Rules[2].Delay != 0.05 {
		t.Errorf("drop rule = %+v", s.Rules[2])
	}
	if s.Rules[3].Server != Database || s.Rules[3].Period != 2 || s.Rules[3].Duty != 0.25 {
		t.Errorf("flap rule = %+v", s.Rules[3])
	}
	// Round trip through String.
	s2, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if s2.String() != s.String() {
		t.Errorf("round trip: %q != %q", s2.String(), s.String())
	}
}

func TestFaultParseErrors(t *testing.T) {
	for _, spec := range []string{
		"melt:srv=1",
		"slow:srv=1",              // missing delay
		"stall:srv=1,from=5s",     // missing until
		"drop:srv=0,p=1.5",        // p out of range
		"flap:srv=0",              // missing period
		"slow:srv=1,wat=3",        // unknown key
		"slow:srv=1,delay",        // malformed kv
		"slow:srv=zebra,delay=1s", // bad index
		"slow:srv=1,delay=NaN",    // NaN parameter
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if s, err := ParseSchedule("  "); err != nil || !s.Empty() {
		t.Errorf("blank spec: %v %v", s, err)
	}
}

func TestFaultWindows(t *testing.T) {
	sched := Schedule{Rules: []Rule{
		{Server: 1, Kind: KindSlow, From: 5, Until: 10, Delay: 0.1},
	}}
	in, err := NewInjector(sched, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		server int
		now    float64
		delay  float64
	}{
		{1, 4.9, 0},          // before window
		{1, 5.0, 0.1},        // window start inclusive
		{1, 7.5, 0.1},        // inside
		{1, 10.0, 0},         // window end exclusive
		{0, 7.5, 0},          // other server
		{Database, 7.5, 0},   // database untouched
		{1, math.Inf(-1), 0}, // before Clock.Start
	} {
		act := in.At(tc.server, tc.now)
		if math.Abs(act.Delay-tc.delay) > 1e-12 || act.Outcome != OK {
			t.Errorf("At(%d, %v) = %+v, want delay %v", tc.server, tc.now, act, tc.delay)
		}
	}
}

func TestFaultStallDelaysUntilWindowEnd(t *testing.T) {
	in, err := NewInjector(Schedule{Rules: []Rule{
		{Server: 0, Kind: KindStall, From: 5, Until: 10},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.At(0, 6).Delay; math.Abs(d-4) > 1e-12 {
		t.Errorf("stall at t=6: delay %v, want 4", d)
	}
	if d := in.At(0, 9.5).Delay; math.Abs(d-0.5) > 1e-12 {
		t.Errorf("stall at t=9.5: delay %v, want 0.5", d)
	}
	// A point taken at t=6 for a command its server starts 2s later
	// reads the window as of t=8.
	p := &Point{Inj: in, Now: func() float64 { return 6 }}
	if d := p.EvalAt(time.Now().Add(2 * time.Second)).Delay; math.Abs(d-2) > 0.01 {
		t.Errorf("EvalAt 2s ahead of t=6: delay %v, want 2", d)
	}
}

func TestFaultFlapPhases(t *testing.T) {
	in, err := NewInjector(Schedule{Rules: []Rule{
		{Server: 0, Kind: KindFlap, From: 0, Period: 2, Duty: 0.5},
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		now  float64
		down bool
	}{
		{0.1, true}, {0.99, true}, {1.0, false}, {1.9, false},
		{2.0, true}, {2.9, true}, {3.5, false},
	} {
		got := in.At(0, tc.now).Outcome == Refuse
		if got != tc.down {
			t.Errorf("flap at t=%v: down=%v, want %v", tc.now, got, tc.down)
		}
	}
}

// TestFaultInjectorDeterministicAcrossPlanes is the cross-plane
// determinism guarantee: two injectors built from the same schedule,
// walked with the same query sequence (as the sim plane does in virtual
// time and the live plane in wall time), produce identical fault
// decisions — including the probabilistic drops.
func TestFaultInjectorDeterministicAcrossPlanes(t *testing.T) {
	sched := Schedule{
		Seed: 42,
		Rules: []Rule{
			{Server: 0, Kind: KindDrop, P: 0.3, Delay: 0.05},
			{Server: 1, Kind: KindSlow, From: 1, Until: 3, Delay: 0.01},
			{Server: AllServers, Kind: KindDrop, P: 0.05},
		},
	}
	simSide, err := NewInjector(sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	liveSide, err := NewInjector(sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	var drops int
	for i := 0; i < 5000; i++ {
		srv := i % 2
		now := float64(i) * 1e-3
		a, b := simSide.At(srv, now), liveSide.At(srv, now)
		if a != b {
			t.Fatalf("query %d: sim %+v != live %+v", i, a, b)
		}
		if a.Outcome == Drop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no drops injected")
	}
	// ~0.3+0.05-overlap on server 0, ~0.05 on server 1 → roughly 0.2 of
	// all queries; just sanity-check the rate is in a plausible band.
	rate := float64(drops) / 5000
	if rate < 0.1 || rate > 0.3 {
		t.Errorf("drop rate %v implausible", rate)
	}
	// A different seed must yield a different drop sequence.
	other, err := NewInjector(Schedule{Seed: 43, Rules: sched.Rules}, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 200; i++ {
		if other.At(0, 0).Outcome != simSide.At(0, 0).Outcome {
			same = false
		}
	}
	if same {
		t.Error("seed does not perturb drop decisions")
	}
}

func TestFaultNilInjectorHealthy(t *testing.T) {
	var in *Injector
	if act := in.At(0, 5); act.Faulted() {
		t.Errorf("nil injector faulted: %+v", act)
	}
	var p *Point
	if act := p.Eval(); act.Faulted() {
		t.Errorf("nil point faulted: %+v", act)
	}
	if act := p.EvalAt(time.Now()); act.Faulted() {
		t.Errorf("nil point faulted at a start: %+v", act)
	}
}

func TestFaultClock(t *testing.T) {
	var c Clock
	if !math.IsInf(c.Now(), -1) {
		t.Errorf("unstarted clock Now = %v", c.Now())
	}
	c.Start()
	time.Sleep(5 * time.Millisecond)
	if now := c.Now(); now <= 0 || now > 1 {
		t.Errorf("started clock Now = %v", now)
	}
}

func TestFaultInjectorValidation(t *testing.T) {
	if _, err := NewInjector(Schedule{Rules: []Rule{{Server: 5, Kind: KindReset}}}, 2); err == nil {
		t.Error("out-of-range server accepted")
	}
	if _, err := NewInjector(Schedule{Rules: []Rule{{Server: 0, Kind: Kind(99)}}}, 2); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestFaultActionLaw: what each verdict does to a cache-server visit,
// the one law both simulators and the shaped live server read.
func TestFaultActionLaw(t *testing.T) {
	for _, c := range []struct {
		act           Action
		refused, lost bool
		work          float64
	}{
		{Action{}, false, false, 0},
		{Action{Delay: 0.02}, false, false, 0.02},
		{Action{Delay: 0.002, Outcome: Drop}, false, true, 0},
		{Action{Outcome: Reset}, true, false, 0},
		{Action{Delay: 0.02, Outcome: Reset}, true, false, 0},
		{Action{Outcome: Refuse}, true, false, 0},
	} {
		if c.act.Refused() != c.refused || c.act.Lost() != c.lost || c.act.Work() != c.work {
			t.Errorf("%+v: refused %v lost %v work %v, want %v %v %v", c.act,
				c.act.Refused(), c.act.Lost(), c.act.Work(), c.refused, c.lost, c.work)
		}
	}
}

func TestFaultResilienceDefaults(t *testing.T) {
	r := Resilience{Retries: 2, BreakerThreshold: 0.5}.WithDefaults()
	if r.RetryBackoff == 0 || r.BreakerWindow == 0 || r.BreakerCooldown == 0 {
		t.Errorf("defaults not filled: %+v", r)
	}
	if (Resilience{}).Enabled() {
		t.Error("zero resilience enabled")
	}
	if !r.Enabled() {
		t.Error("configured resilience disabled")
	}
}
