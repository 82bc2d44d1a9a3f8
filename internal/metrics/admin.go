package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"memqlat/internal/otrace"
	"memqlat/internal/slo"
)

// Admin is the observability HTTP plane every memqlat binary can
// expose behind -admin: /metrics (Prometheus text), /healthz,
// /debug/pprof and, when a tracer is attached, /trace (Chrome
// trace-event JSON of the span ring). It uses its own mux, not
// http.DefaultServeMux, so importing net/http/pprof side effects never
// leak onto a data-plane listener.
type Admin struct {
	reg   *Registry
	mux   *http.ServeMux
	srv   *http.Server
	l     net.Listener
	start time.Time
}

// NewAdmin builds an Admin plane over reg (nil renders an empty
// /metrics page).
func NewAdmin(reg *Registry) *Admin {
	a := &Admin{
		reg:   reg,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	a.mux.HandleFunc("/metrics", a.handleMetrics)
	a.mux.HandleFunc("/healthz", a.handleHealthz)
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return a
}

// ServeAdmin is the one admin-plane boot behind every binary's -admin
// flag: it adds the tracer and watchdog families to reg (both nil-safe),
// mounts /trace when tracer records and /debug/watch when wd is armed,
// and listens on addr. The caller prints the banner from Addr.
func ServeAdmin(addr string, reg *Registry, tracer *otrace.Tracer, wd *slo.Watchdog) (*Admin, error) {
	RegisterTracer(reg, tracer)
	RegisterSLO(reg, wd)
	a := NewAdmin(reg)
	if tracer.Enabled() {
		a.AttachTracer(tracer)
	}
	if wd != nil {
		a.Handle("/debug/watch", wd)
	}
	if _, err := a.Start(addr); err != nil {
		return nil, err
	}
	return a, nil
}

// Addr is the resolved listener address of a started plane.
func (a *Admin) Addr() net.Addr { return a.l.Addr() }

// Handle mounts an extra handler on the admin mux.
func (a *Admin) Handle(pattern string, h http.Handler) {
	a.mux.Handle(pattern, h)
}

// AttachTracer serves t's span ring as Chrome trace-event JSON on
// /trace, so a live binary's recent requests can be pulled straight
// into chrome://tracing.
func (a *Admin) AttachTracer(t *otrace.Tracer) {
	a.mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteChrome(w)
	})
}

func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.reg.WritePrometheus(w)
}

func (a *Admin) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(a.start).Seconds(),
	})
}

// Start listens on addr and serves in the background; the returned
// address is the resolved listener address (useful with ":0").
func (a *Admin) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: admin listen %s: %w", addr, err)
	}
	a.l = l
	a.srv = &http.Server{Handler: a.mux}
	go func() { _ = a.srv.Serve(l) }()
	return l.Addr(), nil
}

// Close stops the admin listener; safe when never started.
func (a *Admin) Close() error {
	if a.srv == nil {
		return nil
	}
	return a.srv.Close()
}

// ServeHTTP exposes the admin mux directly (tests, embedding).
func (a *Admin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}
