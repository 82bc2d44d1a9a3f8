package plane

import (
	"bufio"
	"context"
	"io"
	"log"
	"math"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/extstore"
	"memqlat/internal/server"
	"memqlat/internal/telemetry"
	"memqlat/internal/tenant"
	"memqlat/internal/testkit"
)

// TestLivePlaneAttach runs one scenario on the live plane's two forms —
// attached to servers the test started, and over an in-process cluster —
// and checks they fill the same Result surface; then that neither a
// completed run nor a Start that fails after the cluster is up leaves a
// goroutine or a descriptor behind.
func TestLivePlaneAttach(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane needs real time")
	}
	addrs := make([]string, 2)
	for i := range addrs {
		c, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Options{Cache: c, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(l) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs[i] = l.Addr().String()
	}
	settled := testkit.Settles(t)

	s := Scenario{
		Name: "attach",
		Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 4000, Q: 0.1,
			Xi: 0.15, MuS: 4000, MissRatio: 0.05, MuD: 2000},
		Keys:     100,
		Ops:      400,
		Duration: 30 * time.Second,
		Seed:     5,
		Proxy:    &ProxySpec{},
		Tenants:  []tenant.Spec{{Name: "a", Share: 0.5}, {Name: "b", Share: 0.5}},
	}
	hitsOnly := s
	hitsOnly.MissRatio = 0
	for _, tc := range []struct {
		name   string
		live   LivePlane
		s      Scenario
		wantDB bool
	}{
		{"in-process", LivePlane{}, s, true},
		{"in-process hits only", LivePlane{}, hitsOnly, false},
		{"attached", LivePlane{Servers: addrs}, s, false},
		{"attached read-through", LivePlane{Servers: addrs, ReadThrough: true}, s, true},
	} {
		res, err := tc.live.Run(context.Background(), tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Live == nil || res.Live.Issued != int64(s.Ops) {
			t.Errorf("%s: Live = %+v, want %d issued", tc.name, res.Live, s.Ops)
		}
		// A single-key get has no join: like the model and the
		// simulators at N = 1, the live plane records none.
		if n := res.Breakdown[telemetry.StageForkJoin].Count; n != 0 {
			t.Errorf("%s: %d fork_join observations at N = 1, want none", tc.name, n)
		}
		if got := res.DB != nil; got != tc.wantDB {
			t.Errorf("%s: DB present = %v, want %v (read-through on = %v)", tc.name, got, tc.wantDB, tc.wantDB)
		}
		if len(res.Tenants) != 2 || res.Tenants[0].Name != "a" || res.Tenants[1].Name != "b" ||
			res.Tenants[0].Issued+res.Tenants[1].Issued != int64(s.Ops) {
			t.Errorf("%s: tenant rows = %+v", tc.name, res.Tenants)
		}
		settled(tc.name + " after Close")
	}

	// The policy is only parsed once the cluster is up, so this Start
	// fails with two servers already running.
	bad := s
	bad.Proxy = &ProxySpec{Policy: "scatter"}
	if _, err := (LivePlane{}).Start(bad); err == nil {
		t.Fatal("Start accepted an unknown proxy policy")
	}
	settled("failed Start")

	// What the run would have to build into the servers is refused on a
	// cluster it did not start.
	tiered := s
	tiered.Extstore = &ExtstoreSpec{RAMItems: 10, TotalItems: 40, MuDisk: 2000}
	if _, err := (LivePlane{Servers: addrs}).Start(tiered); err == nil {
		t.Error("attached Start accepted an extstore spec")
	}
}

// TestLivePlaneRefusesWhatItCannotRun: a Scenario field the live stack
// has no way to realize is refused by name before anything is built,
// rather than measured as something else.
func TestLivePlaneRefusesWhatItCannotRun(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*Scenario)
	}{
		{"N", func(s *Scenario) { s.N = 10 }},
		{"LoadRatios", func(s *Scenario) { s.LoadRatios = []float64{0.7, 0.3} }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			s := Scenario{
				Name: "refused",
				Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 1000,
					Q: 0.1, Xi: 0.15, MuS: 1000, MuD: 1000},
			}
			tc.mut(&s)
			r, err := (LivePlane{}).Start(s)
			if err == nil {
				r.Close()
				t.Fatalf("Start accepted %s", tc.field)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("err = %v, want it to name %s", err, tc.field)
			}
		})
	}
}

// TestLivePlaneRunsTheModelsArrivalLaw: the load generator paces the
// gaps of the model's own arrival law, so a Scenario with a non-GP
// Arrival family runs on the live plane: every op is issued, at the
// key rate λ the law's batch gaps and the geometric batches imply.
func TestLivePlaneRunsTheModelsArrivalLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane needs real time")
	}
	for _, tc := range []struct {
		name    string
		arrival func(rate float64) (dist.Interarrival, error)
	}{
		{"Poisson", func(rate float64) (dist.Interarrival, error) { return dist.NewExponential(rate) }},
		{"Erlang-4", func(rate float64) (dist.Interarrival, error) { return dist.NewErlang(4, 4*rate) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Scenario{
				Name: "live-arrival",
				Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 1000,
					Q: 0.1, MuS: 2000, MuD: 1000, Arrival: tc.arrival},
				Keys:     200,
				Ops:      600,
				Duration: 30 * time.Second,
				Seed:     7,
			}
			res, err := (LivePlane{}).Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Live.Issued != int64(s.Ops) || res.Live.Errors != 0 {
				t.Fatalf("issued %d of %d ops, %d errors", res.Live.Issued, s.Ops, res.Live.Errors)
			}
			rate := res.Live.AchievedRate()
			t.Logf("achieved %.0f keys/s at λ = %.0f", rate, s.TotalKeyRate)
			if math.Abs(rate/s.TotalKeyRate-1) > 0.25 {
				t.Errorf("achieved %.0f keys/s, want within 25 %% of λ = %.0f", rate, s.TotalKeyRate)
			}
		})
	}
}

// TestLivePlaneAttachedDiskTier: on an attached cluster the disk tier is
// the servers' own, so the Result sums their extstore_* stats rows, read
// at the servers' own addresses even behind a proxy, which answers stats
// for itself. The in-process servers here each keep a store behind a
// cache too small for the keyspace, and the reported counters must be
// the sums of what the servers count; a cluster without a tier reports
// none.
func TestLivePlaneAttachedDiskTier(t *testing.T) {
	if testing.Short() {
		t.Skip("live plane needs real time")
	}
	// cluster returns each server's address and the cache and disk tier
	// (nil when untiered) behind it.
	cluster := func(tiered bool) ([]string, []*cache.Cache, []*extstore.Store) {
		addrs := make([]string, 2)
		caches := make([]*cache.Cache, 2)
		exts := make([]*extstore.Store, 2)
		for i := range addrs {
			opts := server.Options{Logger: log.New(io.Discard, "", 0)}
			copts := cache.Options{}
			if tiered {
				copts = cache.Options{MaxBytes: 20 * cache.ItemCost(8, 100), Shards: 1, MaxItemSize: 1024}
				ext, err := extstore.Open(extstore.Options{Dir: t.TempDir(), SegmentBytes: 16 << 10})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = ext.Close() })
				opts.Extstore, exts[i] = ext, ext
			}
			c, err := cache.New(copts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Cache, caches[i] = c, c
			srv, err := server.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve(l) }()
			t.Cleanup(func() { _ = srv.Close() })
			addrs[i] = l.Addr().String()
		}
		return addrs, caches, exts
	}
	// row reads one row of a server's stats over a connection of the
	// test's own.
	row := func(addr, name string) int64 {
		t.Helper()
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.WriteString(nc, "stats\r\n"); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(nc)
		for sc.Scan() && sc.Text() != "END" {
			if v, ok := strings.CutPrefix(sc.Text(), "STAT "+name+" "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("%s: stats has no %s row (%v)", addr, name, sc.Err())
		return 0
	}
	s := Scenario{
		Name: "attach-tier",
		Config: core.Config{N: 1, LoadRatios: []float64{0.5, 0.5}, TotalKeyRate: 2000, Q: 0.1,
			Xi: 0.15, MuS: 4000, MuD: 2000},
		Keys:     200,
		Ops:      400,
		Duration: 30 * time.Second,
		Seed:     9,
	}
	proxied := s
	proxied.Proxy = &ProxySpec{}

	for _, tc := range []struct {
		name string
		s    Scenario
	}{{"direct", s}, {"proxied", proxied}} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, caches, exts := cluster(true)
			res, err := (LivePlane{Servers: addrs}).Run(context.Background(), tc.s)
			if err != nil {
				t.Fatal(err)
			}
			er := res.Extstore
			if er == nil {
				t.Fatal("attached tiered cluster reported no disk tier")
			}
			var hits, promotions int64
			for _, addr := range addrs {
				hits += row(addr, "extstore_disk_hits")
				promotions += row(addr, "extstore_promotions")
			}
			if hits == 0 {
				t.Fatal("no get reached the disk tier: the cache is not smaller than the keyspace")
			}
			if er.DiskHits != hits || er.Promotions != promotions {
				t.Errorf("Extstore = %d disk hits, %d promotions; servers count %d, %d",
					er.DiskHits, er.Promotions, hits, promotions)
			}
			// The RAM misses are the caches' own counter. Segments and drops
			// are the disk tiers' own, read again once their writers are
			// idle: a write still queued when the run ends can roll or
			// compact a segment after the run's report.
			var misses, segments, drops int64
			for i := range caches {
				exts[i].Flush()
				misses += caches[i].Stats().Misses
				st := exts[i].Stats()
				segments += int64(st.Segments)
				drops += st.Drops
			}
			tables, err := (&LiveRun{attached: addrs}).clusterStats()
			if err != nil {
				t.Fatal(err)
			}
			idle, err := diskLedger(tables)
			if err != nil || idle == nil {
				t.Fatalf("the idle cluster reported %+v, %v", idle, err)
			}
			if er.RAMMisses != misses || idle.RAMMisses != misses || idle.Segments != segments || idle.Drops != drops {
				t.Errorf("Extstore = %d RAM misses (%d idle), %d segments, %d drops; servers count %d, %d, %d",
					er.RAMMisses, idle.RAMMisses, idle.Segments, idle.Drops, misses, segments, drops)
			}
			if f := er.DiskHitFraction(); f <= 0 {
				t.Errorf("disk-hit fraction = %v with %d disk hits", f, er.DiskHits)
			}
		})
	}

	plain, _, _ := cluster(false)
	res, err := (LivePlane{Servers: plain}).Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extstore != nil {
		t.Errorf("cluster without a tier reported Extstore = %+v", res.Extstore)
	}
}

// TestDiskLedger: the ledger sums every tiered server's rows, skips a
// server without a disk tier, and names a row that does not parse
// instead of reading it as 0.
func TestDiskLedger(t *testing.T) {
	tier := func(hits string) map[string]string {
		return map[string]string{"get_misses": "10", "extstore_disk_hits": hits, "extstore_promotions": "3",
			"extstore_segments": "2", "extstore_segment_bytes": "4096", "extstore_compactions": "1", "extstore_drops": "0"}
	}
	er, err := diskLedger([]map[string]string{tier("4"), {"get_misses": "7"}, tier("5")})
	if err != nil {
		t.Fatal(err)
	}
	want := ExtstoreResult{DiskHits: 9, RAMMisses: 20, Promotions: 6, Segments: 4, SegmentBytes: 8192, Compactions: 2}
	if er == nil || *er != want {
		t.Errorf("ledger = %+v, want %+v", er, want)
	}
	if er, err := diskLedger([]map[string]string{{"get_misses": "7"}}); er != nil || err != nil {
		t.Errorf("untiered cluster: ledger = %+v, %v; want nil, nil", er, err)
	}
	bad := tier("4")
	bad["extstore_segments"] = "two"
	if _, err := diskLedger([]map[string]string{bad}); err == nil || !strings.Contains(err.Error(), "extstore_segments") {
		t.Errorf("unparsable row: err = %v, want one naming extstore_segments", err)
	}
}
