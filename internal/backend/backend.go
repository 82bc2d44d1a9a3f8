// Package backend simulates the back-end database of the Memcached
// architecture (paper Fig. 1): the store of record that missed keys are
// relayed to. Per the paper's §4.4 model it services each lookup with
// an exponential delay of mean 1/µ_D; two disciplines are provided —
// the model's effectively-unqueued stage (ρ_D ≈ 0) and, when
// Options.QueueDepth is set, a bounded single-queue server for overload
// experiments.
package backend

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"memqlat/internal/dist"
	"memqlat/internal/fault"
	"memqlat/internal/otrace"
	"memqlat/internal/queueing"
	"memqlat/internal/telemetry"
)

// valueSize is the size of synthesized values.
const valueSize = 100

// ErrOverloaded reports a full single-queue backend.
var ErrOverloaded = errors.New("backend: queue full")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("backend: closed")

// ErrInjected reports a lookup failed by the fault injector (a database
// outage window).
var ErrInjected = errors.New("backend: injected fault")

// Options configures a DB.
type Options struct {
	// MuD is the service rate (lookups per second, default 1000).
	MuD float64
	// QueueDepth, when positive, serializes lookups through one FIFO
	// service channel with a queue of this depth; overflow returns
	// ErrOverloaded. Zero delays each lookup independently — the
	// paper's ρ_D ≈ 0 database stage.
	QueueDepth int
	// Seed makes delays deterministic.
	Seed uint64
	// Recorder, when set, receives a StageMissPenalty observation for
	// every completed lookup (the live plane's database-stage latency).
	Recorder telemetry.Recorder
	// Fault, when set, injects database-side faults (target
	// fault.Database): slow/stall windows delay lookups, other outcomes
	// fail them with ErrInjected. Nil = healthy.
	Fault *fault.Point
	// Tracer, when set, emits a span per lookup whose context carries a
	// trace (otrace.FromContext) — the miss-penalty leg of a traced
	// request. Nil disables tracing.
	Tracer *otrace.Tracer
}

// DB is the simulated database. Lookups never miss: the database is the
// store of record, so any key has a deterministically synthesized value.
type DB struct {
	muD    float64
	rec    telemetry.Recorder
	fp     *fault.Point
	tracer *otrace.Tracer

	mu  sync.Mutex
	rng *rand.Rand

	// station realizes each drawn delay in wall time: one FIFO channel
	// in single-queue mode, an infinite-server delay stage otherwise.
	station queueing.Station
	closed  atomic.Bool
	lookups atomic.Int64
	dropped atomic.Int64
}

// New constructs a DB.
func New(opts Options) (*DB, error) {
	if opts.MuD == 0 {
		opts.MuD = 1000
	}
	if !(opts.MuD > 0) {
		return nil, fmt.Errorf("backend: MuD=%v must be positive", opts.MuD)
	}
	if opts.QueueDepth < 0 {
		return nil, fmt.Errorf("backend: QueueDepth=%d must not be negative", opts.QueueDepth)
	}
	return &DB{
		muD:     opts.MuD,
		rec:     telemetry.OrNop(opts.Recorder),
		fp:      opts.Fault,
		tracer:  opts.Tracer,
		rng:     dist.SubRand(opts.Seed, 0xdb),
		station: queueing.Station{Parallel: opts.QueueDepth == 0, Depth: opts.QueueDepth},
	}, nil
}

// serviceTime draws an exponential delay.
func (db *DB) serviceTime() time.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	return time.Duration(db.rng.ExpFloat64() / db.muD * float64(time.Second))
}

// Get fetches the value of key, experiencing the modeled service delay.
// It honors ctx cancellation while waiting.
func (db *DB) Get(ctx context.Context, key string) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if key == "" {
		return nil, fmt.Errorf("backend: empty key")
	}
	db.lookups.Add(1)
	// A traced caller hands its context over via otrace.ContextWith; the
	// lookup span covers queueing (single-queue mode) plus service, and
	// ends however the lookup does.
	if tc := otrace.FromContext(ctx); tc.Valid() {
		defer db.tracer.End(db.tracer.Begin(tc, "backend", "lookup", 0))
	}
	began := time.Now()
	service := db.serviceTime()
	if act := db.fp.Eval(); act.Faulted() {
		if d := time.Duration(act.Delay * float64(time.Second)); d > 0 {
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if act.Outcome != fault.OK {
			return nil, ErrInjected
		}
	}
	v, ok := db.station.Arrive(time.Now(), service)
	if !ok {
		db.dropped.Add(1)
		return nil, ErrOverloaded
	}
	if err := db.station.Wait(ctx, v); err != nil {
		return nil, err
	}
	db.rec.Observe(telemetry.StageMissPenalty, time.Since(began).Seconds())
	return db.ValueFor(key), nil
}

// ValueFor deterministically synthesizes the record for key (no delay) —
// the content a real database would hold.
func (db *DB) ValueFor(key string) []byte {
	out := make([]byte, valueSize)
	// Simple key-dependent fill so distinct keys are distinguishable.
	var h uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	for i := range out {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		out[i] = 'a' + byte(h%26)
	}
	return out
}

// Stats reports lookup counters.
type Stats struct {
	Lookups int64
	Dropped int64
	// QueueDepth is the current single-queue backlog; QueuePeak its
	// high-watermark since start. Both zero in concurrent mode.
	QueueDepth int64
	QueuePeak  int64
}

// Stats snapshots counters.
func (db *DB) Stats() Stats {
	depth, peak := db.station.Backlog(time.Now())
	return Stats{Lookups: db.lookups.Load(), Dropped: db.dropped.Load(),
		QueueDepth: int64(depth), QueuePeak: int64(peak)}
}

// Close fails future lookups and wakes every waiting one with ErrClosed.
func (db *DB) Close() {
	db.closed.Store(true)
	db.station.Close(ErrClosed)
}
