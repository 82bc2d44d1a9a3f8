package slo

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memqlat/internal/telemetry"
)

// expQuantiles builds the predicted StageStats of an exponential stage
// with the given mean, matching the model plane's expStage helper.
func expQuantiles(mean float64) telemetry.StageStats {
	return telemetry.StageStats{
		Count: 1,
		Mean:  mean,
		P50:   -math.Log(0.5) * mean,
		P95:   -math.Log(0.05) * mean,
		P99:   -math.Log(0.01) * mean,
		Total: mean,
	}
}

// pointQuantiles builds a point-mass prediction (the closed-form mean).
func pointQuantiles(v float64) telemetry.StageStats {
	return telemetry.StageStats{Count: 1, Mean: v, P50: v, P95: v, P99: v, Total: v}
}

func testConfig() Config {
	return Config{
		Window: 0.25,
		K:      2,
		Band:   2,
		Predicted: telemetry.Breakdown{
			telemetry.StageMissPenalty: expQuantiles(2e-3),
			telemetry.StageQueueWait:   pointQuantiles(500e-6),
			telemetry.StageService:     pointQuantiles(500e-6),
		},
	}
}

// feed records n in-band miss-penalty samples around the predicted
// exponential distribution.
func feedStage(w *Watchdog, stage telemetry.Stage, n int, scale float64, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		w.Observe(stage, rng.ExpFloat64()*2e-3*scale)
	}
}

func TestNewWatchdogValidation(t *testing.T) {
	if _, err := NewWatchdog(Config{Window: -1}); err == nil {
		t.Errorf("negative window: want error")
	}
	if _, err := NewWatchdog(Config{K: -2}); err == nil {
		t.Errorf("negative k: want error")
	}
	if _, err := NewWatchdog(Config{Band: 0.5}); err == nil {
		t.Errorf("band <= 1: want error")
	}
}

func TestDriftDetectionAndAttribution(t *testing.T) {
	var alerts strings.Builder
	cfg := testConfig()
	cfg.AlertWriter = &alerts
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Status().WindowSeconds; got != 0.25 {
		t.Fatalf("window = %v s, want 0.25", got)
	}

	// Pre-arm observations are discarded at Arm; a second Arm is a
	// no-op and must not discard the measured phase.
	w.Observe(telemetry.StageMissPenalty, 1)
	w.OnLatency(1)
	w.Arm()
	if !w.Armed() {
		t.Fatal("Armed() = false after Arm")
	}
	w.Arm()

	rng := rand.New(rand.NewSource(1))
	// Windows 0-1: on-model. Windows 2+: miss penalty shifted 6x up.
	now := 0.0
	for win := 0; win < 6; win++ {
		scale := 1.0
		if win >= 2 {
			scale = 6
		}
		feedStage(w, telemetry.StageMissPenalty, 200, scale, rng)
		feedStage(w, telemetry.StageQueueWait, 200, 0.25, rng) // median ~0.35ms, in band
		now += 0.25
		w.Advance(now)
	}
	st := w.Status()
	if st.WindowsClosed != 6 {
		t.Fatalf("windows closed = %d, want 6", st.WindowsClosed)
	}
	// Fault hits window 2; K=2 means the alert fires when window 3 closes.
	if got := st.FirstDriftWindow("miss_penalty"); got != 3 {
		t.Fatalf("first drift window = %d, want 3", got)
	}
	if st.TopDrift != "miss_penalty" {
		t.Fatalf("top drift = %q, want miss_penalty", st.TopDrift)
	}
	if st.DriftAlerts != 1 {
		t.Fatalf("drift alerts = %d, want exactly 1 (episode de-dup)", st.DriftAlerts)
	}
	line := alerts.String()
	if !strings.Contains(line, "slo alert kind=drift") || !strings.Contains(line, "stage=miss_penalty") {
		t.Fatalf("alert line %q missing kind/stage", line)
	}
	var row *StageStatus
	for i := range st.Stages {
		if st.Stages[i].Stage == "miss_penalty" {
			row = &st.Stages[i]
		}
	}
	if row == nil || !row.Drifting || row.Magnitude < 3 {
		t.Fatalf("miss_penalty row = %+v, want drifting with magnitude >~6", row)
	}
	if row.Predicted == nil || row.BandHigh <= row.BandLow {
		t.Fatalf("miss_penalty band missing: %+v", row)
	}

	// Recovery: two on-model windows clear the streak and re-arm the
	// episode alert.
	for win := 0; win < 2; win++ {
		feedStage(w, telemetry.StageMissPenalty, 200, 1, rng)
		now += 0.25
		w.Advance(now)
	}
	st = w.Status()
	if st.TopDrift != "" {
		t.Fatalf("top drift after recovery = %q, want empty", st.TopDrift)
	}
	// Second episode fires a second alert.
	for win := 0; win < 2; win++ {
		feedStage(w, telemetry.StageMissPenalty, 200, 6, rng)
		now += 0.25
		w.Advance(now)
	}
	if st = w.Status(); st.DriftAlerts != 2 {
		t.Fatalf("drift alerts after second episode = %d, want 2", st.DriftAlerts)
	}
}

func TestPointMassBandJudgesMedianOnly(t *testing.T) {
	w, err := NewWatchdog(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.Arm()
	// Service prediction is a 500µs point mass. Exponential service
	// observations have p99 ≈ 4.6x the mean — far outside a 2x band —
	// but the median (~0.69x) is inside, so no drift may fire.
	rng := rand.New(rand.NewSource(2))
	now := 0.0
	for win := 0; win < 4; win++ {
		for i := 0; i < 200; i++ {
			w.Observe(telemetry.StageService, rng.ExpFloat64()*500e-6)
		}
		now += 0.25
		w.Advance(now)
	}
	if st := w.Status(); st.DriftAlerts != 0 || st.TopDrift != "" {
		t.Fatalf("point-mass service stage drifted: %+v", st)
	}
}

// TestStartAdvancesUntilStopped: Start arms the watchdog and closes
// windows on the clock it is given, and stop ends that — it returns only
// when the goroutine has, so nothing is read from the clock afterwards.
func TestStartAdvancesUntilStopped(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 0.002
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	ticked := make(chan struct{}, 1)
	stop := w.Start(func() float64 {
		select {
		case ticked <- struct{}{}:
		default:
		}
		return float64(reads.Add(1)) * cfg.Window // a window per tick, whatever the wall clock did
	})
	if !w.Armed() {
		t.Error("Start did not arm the watchdog")
	}
	for i := 0; i < 3; i++ {
		select {
		case <-ticked:
		case <-time.After(5 * time.Second):
			t.Fatal("the clock was not read: the watchdog is not advancing")
		}
	}
	stop()
	after := reads.Load()
	if closed := w.Status().WindowsClosed; closed < 2 || closed > after {
		t.Errorf("%d windows closed after %d ticks", closed, after)
	}
	time.Sleep(5 * time.Duration(cfg.Window*float64(time.Second)))
	if n := reads.Load(); n != after {
		t.Errorf("clock read %d more times after stop returned", n-after)
	}
}

func TestMinSamplesKeepsStreak(t *testing.T) {
	cfg := testConfig()
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Arm()
	rng := rand.New(rand.NewSource(3))
	// One out-of-band window, then an empty window, then another
	// out-of-band window: the streak must survive the quiet window and
	// the alert fires on the second evaluated violation.
	feedStage(w, telemetry.StageMissPenalty, 100, 8, rng)
	w.Advance(0.25)
	w.Advance(0.50) // empty window: below MinSamples
	feedStage(w, telemetry.StageMissPenalty, 100, 8, rng)
	w.Advance(0.75)
	st := w.Status()
	if got := st.FirstDriftWindow("miss_penalty"); got != 2 {
		t.Fatalf("first drift window = %d, want 2 (streak kept across quiet window)", got)
	}
}

func TestBurnRateAlerting(t *testing.T) {
	var alerts strings.Builder
	cfg := testConfig()
	cfg.Target = 10e-3
	cfg.Budget = 0.01
	cfg.AlertWriter = &alerts
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Arm()
	now := 0.0
	// Healthy windows fill the long ring: nothing above target.
	for win := 0; win < longWindows; win++ {
		for i := 0; i < 100; i++ {
			w.OnLatency(1e-3)
		}
		now += 0.25
		w.Advance(now)
	}
	if st := w.Status(); st.BurnActive || st.BurnAlerts != 0 {
		t.Fatalf("healthy burn state: %+v", st)
	}
	// Burning windows fill the short ring: 50%% above target = burn
	// rate 50x budget there, while the long ring's rate climbs by
	// 50/16 a window and only reaches the threshold on the 4th.
	for win := 0; win < shortWindows; win++ {
		for i := 0; i < 100; i++ {
			lat := 1e-3
			if i%2 == 0 {
				lat = 20e-3
			}
			w.OnLatency(lat)
		}
		now += 0.25
		w.Advance(now)
		if st := w.Status(); win < shortWindows-1 && st.BurnActive {
			t.Fatalf("burn active after %d burning windows: short=%.1f long=%.1f, want the long ring below %d",
				win+1, st.BurnShort, st.BurnLong, burnThreshold)
		}
	}
	st := w.Status()
	if !st.BurnActive || st.BurnAlerts != 1 {
		t.Fatalf("burn state after violation: active=%v alerts=%d short=%.1f long=%.1f",
			st.BurnActive, st.BurnAlerts, st.BurnShort, st.BurnLong)
	}
	if st.BurnShort < burnThreshold || st.BurnLong < burnThreshold {
		t.Fatalf("burn rates %.1f/%.1f below threshold %d", st.BurnShort, st.BurnLong, burnThreshold)
	}
	if !strings.Contains(alerts.String(), "slo alert kind=burn") {
		t.Fatalf("burn alert line missing from %q", alerts.String())
	}
	// Recovery clears the alert latch.
	for win := 0; win < shortWindows; win++ {
		for i := 0; i < 100; i++ {
			w.OnLatency(1e-3)
		}
		now += 0.25
		w.Advance(now)
	}
	if st = w.Status(); st.BurnActive {
		t.Fatalf("burn still active after recovery: short=%.1f long=%.1f", st.BurnShort, st.BurnLong)
	}
}

func TestShardHandlesAndSimObserver(t *testing.T) {
	w, err := NewWatchdog(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.Arm()
	var rec telemetry.Recorder = w
	sh := telemetry.Shard(rec, 5)
	for i := 0; i < 50; i++ {
		sh.Observe(telemetry.StageMissPenalty, 2e-3)
		sh.Observe(telemetry.Stage(999), 1) // out of range: dropped
	}
	// Sim-observer path: BeginRequest advances the virtual clock,
	// RequestTotal records end-to-end latency.
	w.BeginRequest(0.1)
	w.RequestTotal(0.26, 3e-3)
	st := w.Status()
	if st.WindowsClosed != 1 {
		t.Fatalf("windows closed = %d, want 1 (virtual clock advanced past 0.25)", st.WindowsClosed)
	}
	for _, row := range st.Stages {
		if row.Stage == "miss_penalty" && row.Count != 50 {
			t.Fatalf("sharded observations lost: count=%d, want 50", row.Count)
		}
	}
}

func TestFlushClosesPartialWindow(t *testing.T) {
	w, err := NewWatchdog(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Flush before Arm is a no-op, and what was observed before Arm is
	// not in the first window (the count below is exact).
	w.Observe(telemetry.StageMissPenalty, 1)
	w.Flush()
	w.Arm()
	rng := rand.New(rand.NewSource(4))
	feedStage(w, telemetry.StageMissPenalty, 100, 1, rng)
	if st := w.Status(); st.WindowsClosed != 0 {
		t.Fatalf("windows closed before flush = %d, want 0", st.WindowsClosed)
	}
	w.Flush()
	st := w.Status()
	if st.WindowsClosed != 1 {
		t.Fatalf("windows closed after flush = %d, want 1", st.WindowsClosed)
	}
	for _, row := range st.Stages {
		if row.Stage == "miss_penalty" && row.Count != 100 {
			t.Fatalf("flushed window count = %d, want 100", row.Count)
		}
	}
}

func TestAdvanceIgnoresBogusClock(t *testing.T) {
	w, err := NewWatchdog(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.Arm()
	w.Advance(math.Inf(-1)) // fault.Clock before Start
	w.Advance(math.NaN())
	w.Advance(-5)
	if st := w.Status(); st.WindowsClosed != 0 {
		t.Fatalf("bogus clocks closed %d windows", st.WindowsClosed)
	}
}

func TestServeHTTP(t *testing.T) {
	w, err := NewWatchdog(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.Arm()
	rng := rand.New(rand.NewSource(5))
	for win := 0; win < 3; win++ {
		feedStage(w, telemetry.StageMissPenalty, 100, 8, rng)
		w.Advance(float64(win+1) * 0.25)
	}
	rec := httptest.NewRecorder()
	w.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/watch", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("unmarshal /debug/watch: %v", err)
	}
	if st.TopDrift != "miss_penalty" || len(st.Alerts) == 0 {
		t.Fatalf("served status: top=%q alerts=%d", st.TopDrift, len(st.Alerts))
	}
	if st.FirstDriftWindow("nope") != -1 {
		t.Fatalf("FirstDriftWindow for unknown stage should be -1")
	}
}

// model stands in for a binary's model keys (plane.NewWatchdog reads
// them), which ParseSpec hands on to its caller.
type model struct {
	Lambda, MuS, MuD, Q, Xi, Miss float64
	N                             int
}

func (m *model) set(key, val string) (err error) {
	rates := map[string]*float64{"lambda": &m.Lambda, "mus": &m.MuS, "mud": &m.MuD, "q": &m.Q, "xi": &m.Xi, "miss": &m.Miss}
	switch rate := rates[key]; {
	case rate != nil:
		*rate, err = strconv.ParseFloat(val, 64)
	case key == "n":
		m.N, err = strconv.Atoi(val)
	default:
		err = errors.New("unknown key")
	}
	return err
}

func TestParseSpec(t *testing.T) {
	var m model
	cfg, err := ParseSpec(
		"window=250ms,k=3,band=2.5,target=5ms,budget=0.002,"+
			"lambda=2000,mus=2000,mud=500,q=0.1,xi=1,miss=0.2,n=10", m.set)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != 0.25 || cfg.K != 3 || cfg.Band != 2.5 || cfg.Target != 5e-3 ||
		cfg.Budget != 0.002 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if m.Lambda != 2000 || m.MuS != 2000 || m.MuD != 500 || m.Q != 0.1 || m.Xi != 1 ||
		m.Miss != 0.2 || m.N != 10 {
		t.Fatalf("model = %+v", m)
	}
	// Bare-seconds durations.
	cfg, err = ParseSpec("window=0.5,target=0.01", nil)
	if err != nil || cfg.Window != 0.5 || cfg.Target != 0.01 {
		t.Fatalf("bare seconds: cfg=%+v err=%v", cfg, err)
	}
	// Empty spec is valid (all defaults).
	if _, err := ParseSpec("  ", nil); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	// alpha went with the sketch's own bucket scheme: it is unknown now.
	for _, bad := range []string{"window", "nope=1", "k=abc", "window=xyz", "alpha=0.02"} {
		if _, err := ParseSpec(bad, m.set); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
	// The burn threshold, the burn-rate ring sizes and the sample floor
	// are constants, not keys; without a caller's reader, so are the
	// model keys.
	for _, gone := range []string{"burn=8", "short=2", "long=6", "min-samples=30", "minsamples=30", "lambda=2000"} {
		if _, err := ParseSpec(gone, nil); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("ParseSpec(%q) = %v, want an unknown key error", gone, err)
		}
	}
}

// renderSpec writes a parsed spec back in the -slo grammar: every
// non-zero field under its key, floats in round-trip form, durations
// as bare seconds.
func renderSpec(cfg Config, m model) string {
	var parts []string
	f := func(key string, v float64) {
		if v != 0 {
			parts = append(parts, key+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	i := func(key string, v int64) {
		if v != 0 {
			parts = append(parts, key+"="+strconv.FormatInt(v, 10))
		}
	}
	f("window", cfg.Window)
	i("k", int64(cfg.K))
	f("band", cfg.Band)
	f("target", cfg.Target)
	f("budget", cfg.Budget)
	f("lambda", m.Lambda)
	f("mus", m.MuS)
	f("mud", m.MuD)
	f("q", m.Q)
	f("xi", m.Xi)
	f("miss", m.Miss)
	i("n", int64(m.N))
	return strings.Join(parts, ",")
}

// FuzzParseSpec fuzzes the -slo flag grammar: ParseSpec never panics;
// a spec it accepts re-renders and re-parses to the same Config and
// model (compared as renderings, so NaN equals itself); a spec that
// names a key outside the grammar — alpha included — is rejected.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", " , ", "window", "nope=1", "alpha=0.02", "k=abc", "window=xyz", "band=NaN,budget=+Inf",
		// scripts/slo_smoke.sh and the README's SLO section.
		"lambda=100,mus=500,q=0.1,xi=0.15,window=0.5s,k=2,band=3",
		"lambda=100,mus=500,q=0.1,xi=0.15,window=500ms,band=3",
		"window=0.5s,k=2,band=3",
		// the experiments drift section's watchdog Config, and the binaries' -slo help text.
		"window=0.25,k=2,band=3,target=10ms,budget=0.05",
		"window=250ms,k=2,band=2",
		"lambda=2000,mus=8000,window=1s,k=2",
		"lambda=2000,mus=4000,miss=0.2,mud=500,window=1s,k=2,band=2",
		"window=250ms,k=3,band=2.5,target=5ms,budget=0.002,n=10",
		// the spacing every flagspec grammar reads alike.
		"window=1, band=2", "window = 1", "window=1,,band=2", " \t ",
	} {
		f.Add(seed)
	}
	known := map[string]bool{}
	for _, key := range strings.Split("window k band target budget "+
		"lambda mus mud q xi miss n", " ") {
		known[key] = true
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var m model
		cfg, err := ParseSpec(spec, m.set)
		if err != nil {
			return
		}
		for _, part := range strings.Split(spec, ",") {
			if key, _, ok := strings.Cut(part, "="); ok && !known[strings.TrimSpace(key)] {
				t.Fatalf("ParseSpec(%q) accepted unknown key %q", spec, key)
			}
		}
		rendered := renderSpec(cfg, m)
		var m2 model
		cfg2, err := ParseSpec(rendered, m2.set)
		if err != nil {
			t.Fatalf("ParseSpec(%q) ok, but its rendering %q fails: %v", spec, rendered, err)
		}
		if again := renderSpec(cfg2, m2); again != rendered {
			t.Fatalf("ParseSpec(%q) renders %q, which re-parses to %q", spec, rendered, again)
		}
	})
}

// BenchmarkWatchdogTick prints what `make microbench` reports: one
// window close over a realistically loaded watchdog (three active
// stages plus the end-to-end sketch).
func BenchmarkWatchdogTick(b *testing.B) {
	cfg := testConfig()
	cfg.Target = 5e-3
	w, err := NewWatchdog(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w.Arm()
	rng := rand.New(rand.NewSource(6))
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 50; j++ {
			w.Observe(telemetry.StageMissPenalty, rng.ExpFloat64()*2e-3)
			w.Observe(telemetry.StageQueueWait, rng.ExpFloat64()*200e-6)
			w.Observe(telemetry.StageService, rng.ExpFloat64()*500e-6)
			w.OnLatency(rng.ExpFloat64() * 3e-3)
		}
		now += 0.25
		w.Advance(now)
	}
}
