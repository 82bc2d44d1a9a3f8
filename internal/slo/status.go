package slo

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Quantiles is a p50/p95/p99 triple in seconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Alert is one fired watchdog alert: a stage drifting out of its
// model band ("drift") or the error budget burning too fast ("burn").
type Alert struct {
	Kind      string     `json:"kind"`
	Window    int64      `json:"window"`
	Stage     string     `json:"stage,omitempty"`
	Streak    int        `json:"streak,omitempty"`
	Magnitude float64    `json:"magnitude,omitempty"`
	Observed  *Quantiles `json:"observed,omitempty"`
	Predicted *Quantiles `json:"predicted,omitempty"`
	BurnShort float64    `json:"burn_short,omitempty"`
	BurnLong  float64    `json:"burn_long,omitempty"`
}

// Line renders the alert as the stable one-line format smoke tests
// grep from server/bench output.
func (a Alert) Line(cfg Config) string {
	switch a.Kind {
	case "drift":
		return fmt.Sprintf(
			"slo alert kind=drift window=%d stage=%s streak=%d magnitude=%.2f observed_p50=%.3g predicted_p50=%.3g observed_p99=%.3g predicted_p99=%.3g band=%.2f",
			a.Window, a.Stage, a.Streak, a.Magnitude,
			a.Observed.P50, a.Predicted.P50, a.Observed.P99, a.Predicted.P99, cfg.Band)
	case "burn":
		return fmt.Sprintf(
			"slo alert kind=burn window=%d short=%.2f long=%.2f target=%.3g budget=%.3g",
			a.Window, a.BurnShort, a.BurnLong, cfg.Target, cfg.Budget)
	default:
		return fmt.Sprintf("slo alert kind=%s window=%d", a.Kind, a.Window)
	}
}

// StageStatus is one stage's row in Status: the model band, the last
// evaluated window's observations, and the drift bookkeeping.
type StageStatus struct {
	Stage string `json:"stage"`
	// Predicted is nil for stages the model scenario does not produce.
	Predicted *Quantiles `json:"predicted,omitempty"`
	// BandLow/BandHigh bound the p50 band ([predicted/band,
	// predicted·band]); only upward exits alert.
	BandLow  float64   `json:"band_low,omitempty"`
	BandHigh float64   `json:"band_high,omitempty"`
	Observed Quantiles `json:"observed"`
	Count    int64     `json:"count"`
	Streak   int       `json:"streak"`
	Drifting bool      `json:"drifting"`
	// Magnitude is the worst observed/predicted ratio of the last
	// evaluated window (1 ≈ on-model).
	Magnitude float64 `json:"magnitude"`
}

// Status is the watchdog's full observable state: what /debug/watch
// serves and what Result.SLO carries back from a plane run.
type Status struct {
	Armed         bool          `json:"armed"`
	WindowSeconds float64       `json:"window_seconds"`
	K             int           `json:"k"`
	Band          float64       `json:"band"`
	WindowsClosed int64         `json:"windows_closed"`
	Stages        []StageStatus `json:"stages"`
	// TopDrift names the highest-magnitude currently-drifting stage —
	// the watchdog's attribution of which stage moved ("" when quiet).
	TopDrift    string  `json:"top_drift,omitempty"`
	Target      float64 `json:"target,omitempty"`
	Budget      float64 `json:"budget,omitempty"`
	BurnShort   float64 `json:"burn_short"`
	BurnLong    float64 `json:"burn_long"`
	BurnActive  bool    `json:"burn_active"`
	DriftAlerts int64   `json:"drift_alerts"`
	BurnAlerts  int64   `json:"burn_alerts"`
	Alerts      []Alert `json:"alerts,omitempty"`
}

// Status snapshots the watchdog's current state.
func (w *Watchdog) Status() *Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := &Status{
		Armed:         w.armed.Load(),
		WindowSeconds: w.cfg.Window,
		K:             w.cfg.K,
		Band:          w.cfg.Band,
		WindowsClosed: w.windowsClosed,
		TopDrift:      w.topDrift,
		Target:        w.cfg.Target,
		Budget:        w.cfg.Budget,
		BurnShort:     w.burnShort,
		BurnLong:      w.burnLong,
		BurnActive:    w.burnActive,
		DriftAlerts:   w.driftAlerts,
		BurnAlerts:    w.burnAlerts,
		Alerts:        append([]Alert(nil), w.alerts...),
	}
	for _, ss := range w.stages {
		row := StageStatus{
			Stage: ss.stage.String(),
			Observed: Quantiles{
				P50: ss.lastObs[0], P95: ss.lastObs[1], P99: ss.lastObs[2],
			},
			Count:     ss.lastCount,
			Streak:    ss.streak,
			Drifting:  ss.drifting,
			Magnitude: ss.magnitude,
		}
		if ss.hasBand {
			row.Predicted = &Quantiles{P50: ss.pred[0], P95: ss.pred[1], P99: ss.pred[2]}
			row.BandLow = ss.pred[0] / w.cfg.Band
			row.BandHigh = ss.pred[0] * w.cfg.Band
		}
		st.Stages = append(st.Stages, row)
	}
	return st
}

// FirstDriftWindow returns the window index of the first drift alert
// for the named stage, or -1 when none fired. Experiments use it to
// measure detection latency.
func (s *Status) FirstDriftWindow(stage string) int64 {
	for _, a := range s.Alerts {
		if a.Kind == "drift" && a.Stage == stage {
			return a.Window
		}
	}
	return -1
}

// ServeHTTP implements the /debug/watch admin endpoint: the Status as
// JSON.
func (w *Watchdog) ServeHTTP(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	_ = enc.Encode(w.Status())
}
