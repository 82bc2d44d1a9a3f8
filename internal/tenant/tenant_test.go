package tenant

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"memqlat/internal/dist"
)

// TestBucketDeterministicReplay is the sim-vs-live contract: the admit/
// shed decision sequence is a pure function of the (now, ops, bytes)
// arrival sequence, so replaying the same arrivals through a fresh
// limiter — the way the composition sim replays the live plane's
// schedule on virtual time — yields byte-identical decisions.
func TestBucketDeterministicReplay(t *testing.T) {
	specs := []Spec{
		{Name: "acme", Rate: 100, Burst: 10, Share: 0.5},
		{Name: "evil", Class: ClassBronze, Rate: 50, Share: 0.3},
		{Name: "vip", Class: ClassGold, Rate: 10, Burst: 2, Share: 0.2},
		{Name: "heavy", Rate: 1000, Burst: 20, ByteRate: 5000, ByteBurst: 500},
	}
	rng := dist.SubRand(42, 1)
	type arrival struct {
		tenant string
		now    float64
		ops    int
		nbytes int
	}
	var arrivals []arrival
	now := 0.0
	for i := 0; i < 5000; i++ {
		now += rng.ExpFloat64() / 400
		arrivals = append(arrivals, arrival{
			tenant: specs[rng.IntN(len(specs))].Name,
			now:    now,
			ops:    1 + rng.IntN(3),
			nbytes: rng.IntN(300),
		})
	}
	run := func() []bool {
		l, err := New(specs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, len(arrivals))
		for i, a := range arrivals {
			out[i] = l.byName[a.tenant].Admit(a.now, a.ops, a.nbytes)
		}
		return out
	}
	first := run()
	second := run()
	sheds := 0
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("arrival %d: replay disagrees (%v vs %v)", i, first[i], second[i])
		}
		if !first[i] {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("schedule never shed; the table exercises nothing")
	}
}

// TestBucketTable pins exact admit/shed sequences for hand-computable
// schedules.
func TestBucketTable(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		// each step: time, ops, bytes -> want admit
		steps []struct {
			now    float64
			ops    int
			nbytes int
			want   bool
		}
	}{
		{
			name: "burst-then-refill",
			spec: Spec{Name: "a", Rate: 10, Burst: 2},
			steps: []struct {
				now    float64
				ops    int
				nbytes int
				want   bool
			}{
				{0, 1, 0, true},     // tokens 2 -> 1
				{0, 1, 0, true},     // 1 -> 0
				{0, 1, 0, false},    // empty
				{0.05, 1, 0, false}, // +0.5 tokens < 1
				{0.1, 1, 0, true},   // +0.5 more -> 1
				{0.1, 1, 0, false},
				{1.0, 2, 0, true},  // 9 refilled, capped at burst 2
				{1.0, 1, 0, false}, // burst spent
			},
		},
		{
			name: "gold-never-sheds",
			spec: Spec{Name: "g", Class: ClassGold, Rate: 1, Burst: 1},
			steps: []struct {
				now    float64
				ops    int
				nbytes int
				want   bool
			}{
				{0, 5, 0, true},
				{0, 5, 0, true},
				{0.001, 50, 0, true},
			},
		},
		{
			name: "byte-quota",
			spec: Spec{Name: "b", ByteRate: 100, ByteBurst: 150},
			steps: []struct {
				now    float64
				ops    int
				nbytes int
				want   bool
			}{
				{0, 1, 100, true},  // 150 -> 50
				{0, 1, 100, false}, // 50 < 100
				{0, 1, 0, true},    // reads cost no bytes
				{1.0, 1, 100, true},
			},
		},
		{
			name: "pre-start-clock-admits-all",
			spec: Spec{Name: "p", Rate: 1, Burst: 1},
			steps: []struct {
				now    float64
				ops    int
				nbytes int
				want   bool
			}{
				{math.Inf(-1), 100, 0, true},
				{math.Inf(-1), 100, 0, true},
				{0, 1, 0, true}, // bucket still full at the epoch
				{0, 1, 0, false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := New([]Spec{tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			tn := l.byName[tc.spec.Name]
			for i, st := range tc.steps {
				if got := tn.Admit(st.now, st.ops, st.nbytes); got != st.want {
					t.Fatalf("step %d (now=%v ops=%d bytes=%d): admit=%v want %v",
						i, st.now, st.ops, st.nbytes, got, st.want)
				}
			}
		})
	}
}

func TestBronzeHasNoBurst(t *testing.T) {
	l, err := New([]Spec{{Name: "br", Class: ClassBronze, Rate: 100, Burst: 50}})
	if err != nil {
		t.Fatal(err)
	}
	tn := l.byName["br"]
	if b := tn.spec.Burst; b != 1 {
		t.Fatalf("bronze burst = %v, want clamp to 1", b)
	}
	if !tn.Admit(10, 1, 0) {
		t.Fatal("first op after a long idle gap must admit")
	}
	// A long idle gap banks nothing: the very next op at the same
	// instant sheds.
	if tn.Admit(10, 1, 0) {
		t.Fatal("bronze must not burst after idling")
	}
}

func TestFromKey(t *testing.T) {
	l, err := New([]Spec{{Name: "acme", Rate: 10}, {Name: "evil", Rate: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  string
		want string
	}{
		{"acme:user:17", "acme"},
		{"evil:0", "evil"},
		{"unknown:0", DefaultName},
		{"noprefix", DefaultName},
		{":weird", DefaultName},
		{"", DefaultName},
	} {
		if got := l.FromKey([]byte(tc.key)).Name(); got != tc.want {
			t.Fatalf("FromKey(%q) = %q, want %q", tc.key, got, tc.want)
		}
	}
	if l.Default().Class() != ClassGold {
		t.Fatal("implicit catch-all must be gold (never sheds)")
	}
}

func TestDefaultOverride(t *testing.T) {
	l, err := New([]Spec{{Name: "*", Rate: 5, Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	def := l.FromKey([]byte("anything"))
	if def.Name() != DefaultName || def.spec.Rate != 5 {
		t.Fatalf("declared * spec not applied: %+v", def.spec)
	}
	if !def.Admit(0, 1, 0) || def.Admit(0, 1, 0) {
		t.Fatal("overridden catch-all must enforce its bucket")
	}
	snaps := l.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("declared catch-all must not double-report: %d snapshots", len(snaps))
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("acme:class=gold,rate=500,burst=50,share=0.5; evil:rate=200,byterate=1e6,byteburst=2048,share=0.5 ;bare")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].Name != "acme" || specs[0].Class != ClassGold || specs[0].Rate != 500 || specs[0].Share != 0.5 {
		t.Fatalf("acme parsed wrong: %+v", specs[0])
	}
	if specs[1].ByteRate != 1e6 || specs[1].ByteBurst != 2048 {
		t.Fatalf("evil parsed wrong: %+v", specs[1])
	}
	if specs[2].Name != "bare" || specs[2].Rate != 0 {
		t.Fatalf("bare parsed wrong: %+v", specs[2])
	}
	if got, err := ParseSpecs("  "); err != nil || got != nil {
		t.Fatalf("blank input: %v %v", got, err)
	}
	for _, bad := range []string{
		"a:rate",          // not key=value
		"a:rate=x",        // bad float
		"a:frobs=1",       // unknown key
		"a:class=plastic", // bad class
		"a:rate=-1",       // negative rate
		"a;b;a",           // duplicate tenant
	} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Fatalf("ParseSpecs(%q) accepted", bad)
		}
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		specs []Spec
	}{
		{"empty name", []Spec{{}}},
		{"reserved chars", []Spec{{Name: "a:b"}}},
		{"duplicate", []Spec{{Name: "a"}, {Name: "a"}}},
		{"negative rate", []Spec{{Name: "a", Rate: -1}}},
		{"nan burst", []Spec{{Name: "a", Burst: math.NaN()}}},
		{"share above 1", []Spec{{Name: "a", Share: 1.5}}},
		{"bad class", []Spec{{Name: "a", Class: "platinum"}}},
	} {
		if _, err := New(tc.specs); err == nil {
			t.Fatalf("%s: New accepted %+v", tc.name, tc.specs)
		}
	}
}

func TestSharesAndAdmittedRate(t *testing.T) {
	specs := []Spec{{Name: "a", Share: 0.6}, {Name: "b", Share: 0.2}, {Name: "*"}}
	sh := Shares(specs)
	if math.Abs(sh[0]-0.75) > 1e-12 || math.Abs(sh[1]-0.25) > 1e-12 || sh[2] != 0 {
		t.Fatalf("normalized shares = %v", sh)
	}
	even := Shares([]Spec{{Name: "a"}, {Name: "b"}})
	if even[0] != 0.5 || even[1] != 0.5 {
		t.Fatalf("even split = %v", even)
	}
	lim := Spec{Name: "a", Rate: 100}
	if got := lim.AdmittedRate(250); got != 100 {
		t.Fatalf("limited AdmittedRate = %v", got)
	}
	if got := lim.AdmittedRate(40); got != 40 {
		t.Fatalf("under-quota AdmittedRate = %v", got)
	}
	gold := Spec{Name: "g", Class: ClassGold, Rate: 100}
	if got := gold.AdmittedRate(250); got != 250 {
		t.Fatalf("gold AdmittedRate = %v", got)
	}
}

func TestSnapshotsAndString(t *testing.T) {
	l, err := New([]Spec{
		{Name: "acme", Rate: 100, Burst: 10, ByteRate: 1000, ByteBurst: 1000, Share: 0.5},
		{Name: "vip", Class: ClassGold},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := l.byName["acme"]
	for i := 0; i < 15; i++ {
		a.Admit(0, 1, 10)
	}
	a.Observe(0.001)
	a.Observe(0.002)
	l.FromKey([]byte("stray")).Admit(0, 1, 0) // wake the catch-all
	snaps := l.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("want declared + active catch-all, got %d", len(snaps))
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	if snaps[0].Name != DefaultName || snaps[1].Name != "acme" || snaps[2].Name != "vip" {
		t.Fatalf("sorted order wrong: %v %v %v", snaps[0].Name, snaps[1].Name, snaps[2].Name)
	}
	acme := snaps[1]
	if acme.Admitted != 10 || acme.Shed != 5 {
		t.Fatalf("acme admitted=%d shed=%d, want 10/5", acme.Admitted, acme.Shed)
	}
	if acme.AdmBytes != 100 || acme.ShedBytes != 50 {
		t.Fatalf("acme bytes %d/%d", acme.AdmBytes, acme.ShedBytes)
	}
	if h := a.Latency(); h.Count() != 2 {
		t.Fatalf("latency count = %d", h.Count())
	}
	s := l.String()
	for _, want := range []string{"acme:class=silver,rate=100,burst=10", "byterate=1000", "share=0.5", "vip:class=gold"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestConcurrentAdmit is the -race stress: many goroutines hammer every
// tenant through the shared map while a scraper snapshots. Counter
// conservation (admitted + shed == issued) must hold exactly.
func TestConcurrentAdmit(t *testing.T) {
	l, err := New([]Spec{
		{Name: "acme", Rate: 1e6, Burst: 100},
		{Name: "evil", Rate: 10, Burst: 1},
		{Name: "vip", Class: ClassGold},
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const perWorker = 2000
	keys := [][]byte{[]byte("acme:1"), []byte("evil:1"), []byte("vip:1"), []byte("stray:1")}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := dist.SubRand(uint64(w), 9)
			for i := 0; i < perWorker; i++ {
				tn := l.FromKey(keys[rng.IntN(len(keys))])
				if tn.Admit(float64(i)/1000, 1, 8) {
					tn.Observe(0.0001)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, s := range l.Snapshots() {
				_ = s.Tokens
			}
		}
	}()
	wg.Wait()
	<-done
	var total int64
	for _, s := range l.Snapshots() {
		total += s.Admitted + s.Shed
	}
	if total != workers*perWorker {
		t.Fatalf("admitted+shed = %d, want %d", total, workers*perWorker)
	}
}

func BenchmarkAdmit(b *testing.B) {
	l, err := New([]Spec{{Name: "acme", Rate: 1e9, Burst: 1e6}})
	if err != nil {
		b.Fatal(err)
	}
	key := []byte("acme:user:12345")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.FromKey(key).Admit(float64(i)*1e-6, 1, 0)
	}
}

func ExampleParseSpecs() {
	specs, _ := ParseSpecs("acme:class=gold,rate=500;evil:rate=200,share=1")
	for _, s := range specs {
		fmt.Println(s.Name, s.Class, s.Rate)
	}
	// Output:
	// acme gold 500
	// evil  200
}
