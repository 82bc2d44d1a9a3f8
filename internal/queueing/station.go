package queueing

import (
	"context"
	"sync"
	"time"
)

// Station runs one service channel in wall time: the live twin of the
// server a BatchQueue prices. Its clock is the Lindley recursion the
// simulator runs — a customer starts at max(arrival, the previous
// deadline), and its deadline is start + service — and each caller
// sleeps to a point on that clock rather than for its service, so sleep
// overshoot never reaches the queue. The overshoot of each wake, its
// lateness, brings the next wakes forward (never before their start),
// so the realized service of a run sums to its drawn service while the
// clock, and so every queueing delay, stays exact. No lock is held
// across a sleep. The zero Station is one FIFO channel with an
// unbounded queue.
type Station struct {
	// Parallel starts every customer on arrival: an infinite-server
	// delay stage (the paper's ρ_D ≈ 0 database), lateness carried alike.
	Parallel bool
	// Depth, when positive, bounds a FIFO station's queue: Arrive
	// refuses a customer that would find Depth customers waiting.
	Depth int

	mu     sync.Mutex
	due    []time.Time   // FIFO deadlines not yet passed when last pruned, in order
	late   time.Duration // wake lateness not yet taken off a wake
	peak   int           // the most customers an admitted arrival found
	closed chan struct{} // made on first use, closed by Close
	err    error         // what Wait returns once closed
}

// Visit is one customer's passage through a Station. On the station's
// clock its service runs from Start to Deadline = Start + service; the
// caller sleeps until Wake, the deadline less the lateness carried in,
// never before Start. A FIFO station's wakes are in arrival order.
type Visit struct {
	Start, Deadline, Wake time.Time
	closed                <-chan struct{}
}

// Arrive admits a customer arriving at now with a drawn service time,
// or reports false when the station's queue is full. A customer counts
// against Depth until its deadline on the clock, whenever its caller
// stops waiting.
func (st *Station) Arrive(now time.Time, service time.Duration) (Visit, bool) {
	return st.ArriveFunc(now, func(time.Time) time.Duration { return service })
}

// ArriveFunc is Arrive with the service drawn when the station starts the
// customer: service is called under the station's lock with the start on
// the clock, so a draw that depends on that instant (a fault verdict taken
// at service start, as the simulator takes it) cannot race a later arrival.
func (st *Station) ArriveFunc(now time.Time, service func(start time.Time) time.Duration) (Visit, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	start := now
	if !st.Parallel {
		// The arrival finds len(st.due) customers: one in service, the rest waiting.
		st.prune(now)
		if st.Depth > 0 && len(st.due) > st.Depth {
			return Visit{}, false
		}
		st.peak = max(st.peak, len(st.due))
		if n := len(st.due); n > 0 {
			start = st.due[n-1]
		}
	}
	d := service(start)
	cut := min(st.late, d)
	st.late -= cut
	v := Visit{Start: start, Deadline: start.Add(d), Wake: start.Add(d - cut), closed: st.done()}
	if !st.Parallel {
		st.due = append(st.due, v.Deadline)
	}
	return v, true
}

// Wait sleeps until v.Wake and carries the wake's lateness into later
// wakes. It returns early, carrying nothing, with ctx's error or, once
// the station is closed, with the error given to Close.
func (st *Station) Wait(ctx context.Context, v Visit) error {
	timer := time.NewTimer(time.Until(v.Wake))
	defer timer.Stop()
	select {
	case <-timer.C:
		st.woke(v, time.Now())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-v.closed:
		return st.err // written before the close
	}
}

// woke carries the lateness of v's wake at t.
func (st *Station) woke(v Visit, t time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.late += max(t.Sub(v.Wake), 0)
}

// Backlog reports how many customers wait at now behind the one in
// service, and the most customers an admitted arrival found. Both are zero
// on a Parallel station, where no one waits.
func (st *Station) Backlog(now time.Time) (waiting, peak int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.prune(now)
	return max(len(st.due)-1, 0), st.peak
}

// prune drops the deadlines at or before now; st.mu must be held.
func (st *Station) prune(now time.Time) {
	for len(st.due) > 0 && !st.due[0].After(now) {
		st.due = st.due[1:]
	}
}

// Close wakes every waiting customer, and every later one, with err.
// Only the first call has an effect.
func (st *Station) Close(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	select {
	case <-st.done():
	default:
		st.err = err
		close(st.closed)
	}
}

// done returns the channel Close closes; st.mu must be held.
func (st *Station) done() chan struct{} {
	if st.closed == nil {
		st.closed = make(chan struct{})
	}
	return st.closed
}
