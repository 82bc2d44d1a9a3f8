// Package slo implements the model-anchored SLO watchdog: a rolling-
// window drift detector that compares observed per-stage latency
// quantiles against the band the paper's Theorem 1 predicts for the
// running scenario, attributes drift to the stage that moved, and
// drives multi-window burn-rate alerting against an error budget.
//
// The watchdog is a telemetry.Recorder (and Sharder), so it tees into
// the exact observation stream the planes already produce: every stage
// observation lands in the current window's telemetry.Collector. At
// each window boundary — real time on the live plane, virtual time on
// the simulator — the collector is drained and the frozen window is
// judged:
//
//   - A stage drifts when an observed quantile exceeds its predicted
//     value by more than the band factor for K consecutive evaluated
//     windows. Only upward exits alert (latency regressions); the lower
//     band edge is reported for context but running faster than the
//     model predicts is not a failure. Stages whose model prediction is
//     a point mass (the closed-form mean, e.g. queue_wait) are judged
//     on their median only; stages with a full predicted distribution
//     (exponential tiers like miss_penalty) are judged on p50/p95/p99.
//   - Drifting stages are ranked by magnitude (max observed/predicted
//     ratio), so the top-ranked stage attributes *which* part of the
//     latency budget moved — the predictor signal the model-driven
//     autoscaler roadmap item consumes.
//   - End-to-end request latencies feed a burn-rate alert: the fraction
//     of requests above Target per window, averaged over a short and a
//     long window ring and divided by Budget. Both rates exceeding the
//     burn threshold fires the alert (multi-window, à la error-budget
//     alerting), which keeps one noisy window from paging.
//
// The package deliberately does not import internal/plane: the caller
// hands in the predicted telemetry.Breakdown (see plane.PredictedBands)
// so the plane package can embed a watchdog without an import cycle.
package slo

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memqlat/internal/sketch"
	"memqlat/internal/telemetry"
)

// The burn-rate alert fires when both the short and the long ring's
// burn rate reach burnThreshold; the rings hold shortWindows and
// longWindows windows. A stage is judged in a window only once it holds
// minSamples observations: below that the drift streak is kept, not
// reset, so a stalled tier cannot launder its drift by going quiet.
const (
	burnThreshold = 10
	shortWindows  = 4
	longWindows   = 16
	minSamples    = 20
)

// quantile labels in evaluation order; pred/obs triples index alike.
var qlabels = [3]string{"p50", "p95", "p99"}

var qprobs = [3]float64{0.5, 0.95, 0.99}

// Config parameterizes a Watchdog. The zero value of every field picks
// a sensible default (see withDefaults); Predicted is the one input a
// useful watchdog needs.
type Config struct {
	// Window is the rolling-window length in seconds (default 0.25).
	Window float64
	// K is how many consecutive out-of-band windows a stage needs
	// before it is flagged as drifting (default 2).
	K int
	// Band is the multiplicative tolerance around the predicted
	// quantiles: observed > predicted·Band exits the band (default 2).
	Band float64
	// Target is the end-to-end latency SLO target in seconds; requests
	// above it burn error budget. 0 disables burn-rate alerting.
	Target float64
	// Budget is the allowed fraction of requests above Target
	// (default 1e-3).
	Budget float64
	// Predicted anchors the bands: the Theorem-1 per-stage breakdown
	// of the running scenario (plane.PredictedBands). Stages with no
	// predicted observations get no band and never drift.
	Predicted telemetry.Breakdown
	// AlertWriter, when non-nil, receives one "slo alert ..." line per
	// fired alert — the machine-parseable surface smoke tests grep.
	AlertWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 0.25
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.Band == 0 {
		c.Band = 2
	}
	if c.Budget == 0 {
		c.Budget = 1e-3
	}
	return c
}

// stageState is the per-stage half of the watchdog: the model band and
// the drift bookkeeping the evaluator updates at window boundaries
// (under Watchdog.mu).
type stageState struct {
	stage     telemetry.Stage
	pred      [3]float64
	hasBand   bool
	pointMass bool
	lastObs   [3]float64
	lastCount int64
	streak    int
	drifting  bool
	magnitude float64
	alerted   bool
}

// Watchdog is the model-anchored drift detector. Construct with
// NewWatchdog, tee it into a telemetry chain, Arm it when the measured
// phase starts, and Advance it with the plane's clock.
type Watchdog struct {
	cfg   Config
	armed atomic.Bool
	// win holds the current window's per-stage observations, total its
	// end-to-end request latencies; both are drained at each boundary.
	win    *telemetry.Collector
	total  *sketch.Sketch
	stages []stageState // indexed by telemetry.Stage

	// next is the index of the oldest unclosed window; Advance's fast
	// path reads it without taking mu.
	next atomic.Int64

	mu            sync.Mutex
	windowsClosed int64
	shortRing     []float64
	longRing      []float64
	burnShort     float64
	burnLong      float64
	burnActive    bool
	burnAlerted   bool
	topDrift      string
	alerts        []Alert
	driftAlerts   int64
	burnAlerts    int64
}

// NewWatchdog constructs a watchdog from cfg. Stages present in
// cfg.Predicted with at least one predicted observation are banded;
// every telemetry stage is sketched regardless so /debug/watch shows
// the full observed decomposition.
func NewWatchdog(cfg Config) (*Watchdog, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Window > 0) {
		return nil, fmt.Errorf("slo: window %v must be positive", cfg.Window)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("slo: k %d must be >= 1", cfg.K)
	}
	if !(cfg.Band > 1) {
		return nil, fmt.Errorf("slo: band factor %v must exceed 1", cfg.Band)
	}
	w := &Watchdog{cfg: cfg, win: telemetry.NewCollector()}
	// New cannot fail: Options has nothing to reject.
	w.total, _ = sketch.New(sketch.Options{})
	for _, st := range telemetry.Stages() {
		ss := stageState{stage: st}
		if p, ok := cfg.Predicted[st]; ok && p.Count > 0 {
			ss.pred = [3]float64{p.P50, p.P95, p.P99}
			ss.hasBand = ss.pred[0] > 0 || ss.pred[1] > 0 || ss.pred[2] > 0
			ss.pointMass = p.P50 == p.P95 && p.P95 == p.P99
		}
		w.stages = append(w.stages, ss)
	}
	return w, nil
}

// Arm starts the measured phase: whatever was observed before it
// (warm-up traffic, cache population) is discarded, so it cannot
// pollute the first window, and the record paths need no armed check.
// Arming an armed watchdog does nothing.
func (w *Watchdog) Arm() {
	if w.armed.Load() {
		return
	}
	w.win.Drain()
	w.total.Reset()
	w.armed.Store(true)
}

// Start arms the watchdog and advances it once a window on clock —
// seconds since the run's epoch, the time base of Advance — until the
// returned stop is called. stop returns once the advancing goroutine has
// exited; call it once.
func (w *Watchdog) Start(clock func() float64) (stop func()) {
	w.Arm()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Duration(w.cfg.Window * float64(time.Second)))
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.Advance(clock())
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// Armed reports whether the measured phase has started.
func (w *Watchdog) Armed() bool { return w.armed.Load() }

// Observe implements telemetry.Recorder (stripe 0). Hot paths obtain a
// striped handle via Shard.
func (w *Watchdog) Observe(stage telemetry.Stage, seconds float64) {
	w.win.Observe(stage, seconds)
}

// Shard implements telemetry.Sharder with the window collector's
// preallocated handles, so sharding a watchdog never allocates.
func (w *Watchdog) Shard(hint uint64) telemetry.Recorder { return w.win.Shard(hint) }

// OnLatency records one end-to-end request latency for burn-rate
// accounting (the loadgen's per-request hook on the live plane).
func (w *Watchdog) OnLatency(seconds float64) { w.total.Record(seconds) }

// BeginRequest and RequestTotal implement the simulator's request
// observer: the virtual timeline drives the window clock, making the
// detector's firing window a deterministic function of the run seed.
func (w *Watchdog) BeginRequest(now float64) { w.Advance(now) }

// RequestTotal records a simulated request's end-to-end latency at
// virtual time now.
func (w *Watchdog) RequestTotal(now, total float64) {
	w.Advance(now)
	w.total.Record(total)
}

// Advance closes every rolling window that ended before now (seconds
// since the run clock started). The fast path — no window boundary
// crossed — is a single atomic load, so the simulator can call it once
// per request.
func (w *Watchdog) Advance(now float64) {
	if !w.armed.Load() || !(now >= 0) {
		return
	}
	target := int64(math.Floor(now / w.cfg.Window))
	if target <= w.next.Load() {
		return
	}
	w.mu.Lock()
	for w.next.Load() < target {
		w.closeWindowLocked(w.next.Load())
		w.next.Add(1)
	}
	w.mu.Unlock()
}

// Flush closes the in-progress partial window, so short runs still get
// their trailing observations judged. Call once at the end of a run.
func (w *Watchdog) Flush() {
	if !w.armed.Load() {
		return
	}
	w.mu.Lock()
	w.closeWindowLocked(w.next.Load())
	w.next.Add(1)
	w.mu.Unlock()
}

// closeWindowLocked drains the window, judges the frozen window idx,
// and fires any alerts. Caller holds w.mu.
func (w *Watchdog) closeWindowLocked(idx int64) {
	w.windowsClosed++
	window := w.win.Drain()
	var drifting []*stageState
	for i := range w.stages {
		ss := &w.stages[i]
		snap := window[ss.stage]
		ss.lastCount = snap.Count()
		if snap.Count() >= minSamples {
			obs := [3]float64{}
			for j, q := range qprobs {
				obs[j] = snap.MustQuantile(q)
			}
			ss.lastObs = obs
			if ss.hasBand {
				out := false
				mag := 0.0
				for j, p := range ss.pred {
					if p <= 0 || (ss.pointMass && j > 0) {
						continue
					}
					if r := obs[j] / p; r > mag {
						mag = r
					}
					if obs[j] > p*w.cfg.Band {
						out = true
					}
				}
				ss.magnitude = mag
				if out {
					ss.streak++
				} else {
					ss.streak = 0
					ss.alerted = false
				}
			}
		}
		// Below minSamples the window is not evidence either way: the
		// streak is kept, so a tier that stalls outright (and stops
		// reporting) stays flagged.
		ss.drifting = ss.hasBand && ss.streak >= w.cfg.K
		if ss.drifting {
			drifting = append(drifting, ss)
		}
	}
	sort.Slice(drifting, func(i, j int) bool { return drifting[i].magnitude > drifting[j].magnitude })
	w.topDrift = ""
	if len(drifting) > 0 {
		w.topDrift = drifting[0].stage.String()
	}
	for _, ss := range drifting {
		if ss.alerted {
			continue
		}
		ss.alerted = true
		w.driftAlerts++
		a := Alert{
			Kind:      "drift",
			Window:    idx,
			Stage:     ss.stage.String(),
			Streak:    ss.streak,
			Magnitude: ss.magnitude,
			Observed:  &Quantiles{P50: ss.lastObs[0], P95: ss.lastObs[1], P99: ss.lastObs[2]},
			Predicted: &Quantiles{P50: ss.pred[0], P95: ss.pred[1], P99: ss.pred[2]},
		}
		w.pushAlertLocked(a)
	}

	// Burn-rate accounting over the window's end-to-end latencies.
	tsnap := w.total.Snapshot()
	w.total.Reset()
	frac := 0.0
	if w.cfg.Target > 0 {
		frac = tsnap.FractionAbove(w.cfg.Target)
	}
	w.shortRing = pushRing(w.shortRing, frac, shortWindows)
	w.longRing = pushRing(w.longRing, frac, longWindows)
	w.burnShort = ringMean(w.shortRing) / w.cfg.Budget
	w.burnLong = ringMean(w.longRing) / w.cfg.Budget
	w.burnActive = w.cfg.Target > 0 && w.burnShort >= burnThreshold && w.burnLong >= burnThreshold
	if w.burnActive {
		if !w.burnAlerted {
			w.burnAlerted = true
			w.burnAlerts++
			w.pushAlertLocked(Alert{
				Kind:      "burn",
				Window:    idx,
				BurnShort: w.burnShort,
				BurnLong:  w.burnLong,
			})
		}
	} else {
		w.burnAlerted = false
	}
}

// maxAlerts bounds the retained alert history (oldest dropped).
const maxAlerts = 128

func (w *Watchdog) pushAlertLocked(a Alert) {
	if len(w.alerts) >= maxAlerts {
		copy(w.alerts, w.alerts[1:])
		w.alerts = w.alerts[:len(w.alerts)-1]
	}
	w.alerts = append(w.alerts, a)
	if w.cfg.AlertWriter != nil {
		fmt.Fprintln(w.cfg.AlertWriter, a.Line(w.cfg))
	}
}

func pushRing(ring []float64, v float64, size int) []float64 {
	ring = append(ring, v)
	if len(ring) > size {
		copy(ring, ring[len(ring)-size:])
		ring = ring[:size]
	}
	return ring
}

func ringMean(ring []float64) float64 {
	if len(ring) == 0 {
		return 0
	}
	var s float64
	for _, v := range ring {
		s += v
	}
	return s / float64(len(ring))
}
