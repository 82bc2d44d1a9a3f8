package slo

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Model carries the queueing parameters a standalone binary's -slo spec
// supplies so it can compute Theorem-1 bands without a harness-built
// scenario: the per-process arrival rate λ, service rates µ_S/µ_D, the
// utilization shape (q, ξ), the miss ratio δ and the request batch
// size N. Lambda > 0 marks the model as present.
type Model struct {
	Lambda float64
	MuS    float64
	MuD    float64
	Q      float64
	Xi     float64
	Miss   float64
	N      int
}

// ParseSpec parses a -slo flag value: comma-separated key=value pairs.
//
// Detector keys: window (duration), k (int), band (float), target
// (duration), budget (float). Durations accept Go syntax ("250ms") or
// bare seconds ("0.25").
//
// Model keys (for binaries that are not already running a scenario):
// lambda, mus, mud, q, xi, miss, n.
//
// The returned Config has no Predicted breakdown yet — the caller
// anchors it (plane.PredictedBands or equivalent) before NewWatchdog.
func ParseSpec(spec string) (Config, Model, error) {
	var cfg Config
	var m Model
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, m, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, m, fmt.Errorf("slo: spec %q: %q is not key=value", spec, part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "window":
			cfg.Window, err = parseSeconds(val)
		case "k":
			cfg.K, err = strconv.Atoi(val)
		case "band":
			cfg.Band, err = strconv.ParseFloat(val, 64)
		case "target":
			cfg.Target, err = parseSeconds(val)
		case "budget":
			cfg.Budget, err = strconv.ParseFloat(val, 64)
		case "lambda":
			m.Lambda, err = strconv.ParseFloat(val, 64)
		case "mus":
			m.MuS, err = strconv.ParseFloat(val, 64)
		case "mud":
			m.MuD, err = strconv.ParseFloat(val, 64)
		case "q":
			m.Q, err = strconv.ParseFloat(val, 64)
		case "xi":
			m.Xi, err = strconv.ParseFloat(val, 64)
		case "miss":
			m.Miss, err = strconv.ParseFloat(val, 64)
		case "n":
			m.N, err = strconv.Atoi(val)
		default:
			return cfg, m, fmt.Errorf("slo: spec %q: unknown key %q", spec, key)
		}
		if err != nil {
			return cfg, m, fmt.Errorf("slo: spec %q: key %q: %v", spec, key, err)
		}
	}
	return cfg, m, nil
}

// parseSeconds accepts a Go duration ("250ms") or bare seconds
// ("0.25"), matching the fault-schedule grammar.
func parseSeconds(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is neither a duration nor seconds", s)
	}
	return v, nil
}
