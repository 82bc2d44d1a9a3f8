package queueing

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// epoch is the injected clock's origin: the station tests pass every
// arrival and wake time explicitly and never read the wall clock.
var epoch = time.Unix(1_700_000_000, 0)

func at(d time.Duration) time.Time { return epoch.Add(d) }

// TestStationLindley checks that a FIFO station's clock is the Lindley
// recursion exactly — start = max(arrival, previous deadline), deadline
// = start + service — and a Parallel one's is arrival + service, with no
// lateness and with any: lateness moves only the wakes, and a FIFO
// station's wakes stay in arrival order.
func TestStationLindley(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, parallel := range []bool{false, true} {
		for _, late := range []time.Duration{0, 700 * time.Microsecond} {
			st := &Station{Parallel: parallel}
			var now, free time.Duration
			var prev Visit
			for i := 0; i < 10_000; i++ {
				now += time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
				service := time.Duration(rng.ExpFloat64() * 0.8 * float64(time.Millisecond))
				start := now
				if !parallel {
					start = max(now, free)
				}
				free = start + service
				v, ok := st.Arrive(at(now), service)
				if !ok || !v.Start.Equal(at(start)) || !v.Deadline.Equal(at(start+service)) {
					t.Fatalf("parallel=%v late=%v customer %d: visit %v..%v ok=%v, want %v..%v",
						parallel, late, i, v.Start.Sub(epoch), v.Deadline.Sub(epoch), ok, start, start+service)
				}
				if late == 0 && !v.Wake.Equal(v.Deadline) {
					t.Fatalf("customer %d wakes at %v before its deadline %v with no lateness carried",
						i, v.Wake.Sub(epoch), v.Deadline.Sub(epoch))
				}
				if !parallel && v.Wake.Before(prev.Wake) {
					t.Fatalf("late=%v customer %d wakes at %v, before customer %d's wake at %v",
						late, i, v.Wake.Sub(epoch), i-1, prev.Wake.Sub(epoch))
				}
				prev = v
				st.woke(v, v.Wake.Add(late))
			}
		}
	}
}

// TestStationCarriesLateness checks that a wake's lateness brings the
// next wake forward, that a cut never moves a wake before its start,
// and that what one service cannot absorb carries on to the next.
func TestStationCarriesLateness(t *testing.T) {
	st := &Station{}
	a, _ := st.Arrive(at(0), 10*time.Millisecond)
	st.woke(a, a.Wake.Add(5*time.Millisecond)) // woke 5 ms late
	b, _ := st.Arrive(at(20*time.Millisecond), 2*time.Millisecond)
	if !b.Start.Equal(at(20*time.Millisecond)) || !b.Wake.Equal(b.Start) || !b.Deadline.Equal(at(22*time.Millisecond)) {
		t.Fatalf("b = %v..%v waking at %v, want 20ms..22ms waking at 20ms: the 2 ms service absorbs 2 of the 5 ms",
			b.Start.Sub(epoch), b.Deadline.Sub(epoch), b.Wake.Sub(epoch))
	}
	c, _ := st.Arrive(at(20*time.Millisecond), 10*time.Millisecond)
	if !c.Start.Equal(b.Deadline) || c.Wake.Sub(c.Start) != 7*time.Millisecond {
		t.Fatalf("c starts at %v and wakes %v later, want 22ms and 7ms (10 ms less the 3 ms left over)",
			c.Start.Sub(epoch), c.Wake.Sub(c.Start))
	}
	if st.late != 0 {
		t.Fatalf("carry left = %v, want 0", st.late)
	}
}

// TestStationRealizesDrawnService runs a long stream of customers whose
// every wake is scripted late by up to 1 ms, leaving in wake order, and
// checks that the realized service (wake − start) sums to the drawn
// service plus exactly the lateness still carried — a few wakes' worth,
// mostly of the customers still asleep when the stream ends — and that
// no wake leaves [start, deadline].
func TestStationRealizesDrawnService(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, parallel := range []bool{false, true} {
		st := &Station{Parallel: parallel}
		type wake struct {
			v    Visit
			woke time.Time
		}
		var pending []wake
		var now, drawn, realized time.Duration
		for i := 0; i < 100_000; i++ {
			now += time.Duration(rng.ExpFloat64() * 1.6 * float64(time.Millisecond))
			// Every customer that woke by now has left, earliest first.
			slices.SortFunc(pending, func(x, y wake) int { return x.woke.Compare(y.woke) })
			for len(pending) > 0 && !pending[0].woke.After(at(now)) {
				st.woke(pending[0].v, pending[0].woke)
				pending = pending[1:]
			}
			service := time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
			v, _ := st.Arrive(at(now), service)
			if v.Wake.Before(v.Start) || v.Wake.After(v.Deadline) {
				t.Fatalf("parallel=%v customer %d: wakes %v into a %v service", parallel, i, v.Wake.Sub(v.Start), service)
			}
			woke := v.Wake.Add(time.Duration(rng.Float64() * float64(time.Millisecond)))
			pending = append(pending, wake{v, woke})
			drawn += service
			realized += woke.Sub(v.Start)
		}
		for _, w := range pending {
			st.woke(w.v, w.woke)
		}
		if realized != drawn+st.late {
			t.Errorf("parallel=%v: realized %v, drawn %v + carried %v", parallel, realized, drawn, st.late)
		}
		if st.late > 5*time.Millisecond {
			t.Errorf("parallel=%v: %v of lateness still carried after the run", parallel, st.late)
		}
		t.Logf("parallel=%v: drawn %v, realized %v, carried %v", parallel, drawn, realized, st.late)
	}
}

// TestStationDepth checks the bounded FIFO queue: an arrival that would
// find Depth customers waiting is refused, and Backlog counts the
// waiting and the longest queue joined.
func TestStationDepth(t *testing.T) {
	st := &Station{Depth: 2}
	var vs []Visit
	for i := 0; i < 3; i++ {
		v, ok := st.Arrive(at(0), time.Millisecond)
		if !ok {
			t.Fatalf("arrival %d refused with %d waiting", i, i-1)
		}
		vs = append(vs, v)
	}
	if _, ok := st.Arrive(at(0), time.Millisecond); ok {
		t.Fatal("a fourth arrival was admitted behind 2 waiting at Depth 2")
	}
	if waiting, peak := st.Backlog(at(0)); waiting != 2 || peak != 2 {
		t.Fatalf("Backlog = %d, %d; want 2 waiting, peak 2", waiting, peak)
	}
	// A customer that leaves before its deadline, woken early by carried
	// lateness or given up by its caller, holds its place until that
	// deadline on the clock, as a job left in a queue does.
	st.woke(vs[2], at(0))
	if _, ok := st.Arrive(at(999*time.Microsecond), time.Millisecond); ok {
		t.Fatal("admitted before the customer in service reached its deadline")
	}
	if waiting, _ := st.Backlog(at(time.Millisecond)); waiting != 1 {
		t.Fatalf("Backlog at 1ms = %d waiting, want 1", waiting)
	}
	if _, ok := st.Arrive(at(time.Millisecond), time.Millisecond); !ok {
		t.Fatal("refused once the customer in service reached its deadline")
	}
}
