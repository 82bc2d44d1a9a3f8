package metrics

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memqlat/internal/slo"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// TestHistogramExemplarExposition exercises the OpenMetrics exemplar
// suffix: the exemplar must ride the first bucket containing its value,
// fall back to +Inf when it exceeds every bound, carry the timestamp
// only when one was recorded, and vanish entirely on nil exemplars.
func TestHistogramExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := stats.NewHistogram()
	for i := 0; i < 4; i++ {
		h.Record(1.5e-4)
	}
	bounds := []float64{1e-4, 1e-3, 1e-2}
	r.HistogramWithExemplars("memqlat_ex_seconds", "Exemplar test.", bounds,
		func(emit func(Labels, *stats.Histogram, *Exemplar)) {
			emit(L("s", "mid"), h, &Exemplar{TraceID: "00000000deadbeef", Value: 2e-4, Unix: 1.5})
			emit(L("s", "big"), h, &Exemplar{TraceID: "ff", Value: 5})
			emit(L("s", "plain"), h, nil)
		})
	out := render(t, r)
	for _, want := range []string{
		// The 2e-4 exemplar lands in the (1e-4, 1e-3] bucket with its
		// Unix timestamp; earlier and later buckets stay clean.
		`memqlat_ex_seconds_bucket{s="mid",le="0.001"} 4 # {trace_id="00000000deadbeef"} 0.0002 1.500` + "\n",
		`memqlat_ex_seconds_bucket{s="mid",le="0.0001"} 0` + "\n",
		`memqlat_ex_seconds_bucket{s="mid",le="0.01"} 4` + "\n",
		// Beyond every bound: the exemplar rides +Inf, no timestamp.
		`memqlat_ex_seconds_bucket{s="big",le="+Inf"} 4 # {trace_id="ff"} 5` + "\n",
		`memqlat_ex_seconds_bucket{s="big",le="0.01"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `s="plain"`) && strings.Contains(line, "# {") {
			t.Errorf("nil exemplar leaked a suffix: %q", line)
		}
	}
}

// TestRegisterTelemetryExemplars checks the stage histograms pick up
// the most recent traced observation from the exemplar store.
func TestRegisterTelemetryExemplars(t *testing.T) {
	c := telemetry.NewCollector()
	for i := 0; i < 8; i++ {
		c.Observe(telemetry.StageService, 2e-4)
	}
	ex := telemetry.NewExemplarStore()
	ex.Record(telemetry.StageService, 0xabc, 2e-4, 42.25)

	r := NewRegistry()
	RegisterTelemetryExemplars(r, c, ex)
	out := render(t, r)
	if want := `trace_id="0000000000000abc"`; !strings.Contains(out, want) {
		t.Errorf("exposition missing exemplar %q\n%s", want, out)
	}
	if !strings.Contains(out, `memqlat_stage_latency_seconds_bucket{stage="service"`) {
		t.Errorf("stage histogram missing\n%s", out)
	}
}

// TestRegisterSLO arms a real watchdog on a point-mass band, drives a
// window far out of band, and checks every memqlat_slo_* family lands
// on the exposition with the drift attributed.
func TestRegisterSLO(t *testing.T) {
	wd, err := slo.NewWatchdog(slo.Config{
		Window: 0.25,
		K:      1,
		Band:   2,
		Target: 1e-3, // every 10ms request burns budget
		Predicted: telemetry.Breakdown{
			telemetry.StageService: {Count: 100, P50: 1e-3, P95: 1e-3, P99: 1e-3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wd.Arm()
	for i := 0; i < 40; i++ {
		wd.Observe(telemetry.StageService, 1e-2) // 10x the predicted median
		wd.RequestTotal(0.1, 1e-2)
	}
	wd.Advance(0.3) // closes window 0: drift at K=1, budget fully burned

	r := NewRegistry()
	RegisterSLO(r, wd)
	out := render(t, r)
	for _, want := range []string{
		"memqlat_slo_armed 1",
		"memqlat_slo_windows_closed_total 1",
		`memqlat_slo_stage_predicted_seconds{stage="service",q="0.5"} 0.001`,
		`memqlat_slo_stage_observed_seconds{stage="service",q="0.5"}`,
		`memqlat_slo_stage_drift_streak{stage="service"} 1`,
		`memqlat_slo_stage_drifting{stage="service"} 1`,
		`memqlat_slo_stage_drift_magnitude{stage="service"}`,
		`memqlat_slo_burn_rate{window="short"}`,
		`memqlat_slo_burn_rate{window="long"}`,
		"memqlat_slo_drift_alerts_total 1",
		"memqlat_slo_burn_alerts_total",
		"memqlat_slo_burn_active",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// A nil watchdog registers nothing.
	empty := NewRegistry()
	RegisterSLO(empty, nil)
	if got := render(t, empty); strings.Contains(got, "memqlat_slo") {
		t.Errorf("nil watchdog should register nothing:\n%s", got)
	}
}

// TestAdminHandleMount checks extra handlers (the /debug/watch surface)
// mount on the admin mux.
func TestAdminHandleMount(t *testing.T) {
	reg := NewRegistry()
	a := NewAdmin(reg)
	a.Handle("/debug/watch", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("watch-ok"))
	}))
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/watch", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "watch-ok" {
		t.Errorf("mounted handler: code=%d body=%q", rec.Code, rec.Body.String())
	}
}
