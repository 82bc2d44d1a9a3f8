package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// usage is the process-wide resource counters a round is charged with.
type usage struct {
	mallocs, allocBytes float64
	gcCycles, gcPauseNs float64
	cpuSecs             float64 // getrusage user+sys
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		mallocs: float64(m.Mallocs), allocBytes: float64(m.TotalAlloc),
		gcCycles: float64(m.NumGC), gcPauseNs: float64(m.PauseTotalNs),
		cpuSecs: tv(ru.Utime) + tv(ru.Stime),
	}
}

func (u usage) sub(v usage) usage {
	return usage{u.mallocs - v.mallocs, u.allocBytes - v.allocBytes,
		u.gcCycles - v.gcCycles, u.gcPauseNs - v.gcPauseNs, u.cpuSecs - v.cpuSecs}
}

// A round is what one timed closed-loop interval produced.
type round struct {
	attempted int64
	failed    int64
	rate      float64 // verified requests per second, summed over workers
	secs      float64 // wall seconds, first start to last stop
	lat       latency
	used      usage // whole process, over exactly the timed interval
}

// littleRatio is throughput x mean latency / C. Each worker is either
// inside a timed call or in the few instructions between two calls, so
// anything but ~1 means the instrumentation lost or double-counted time.
func (r round) littleRatio(c int) float64 {
	return r.rate * r.lat.mean / 1e9 / float64(c)
}

// closedLoop runs c workers for dur. Each calls do(worker, i) for
// successive i from its cursor (cyclic over n), zero think time, and
// records the latency from just before the call to its verified return.
// A worker stops at the first completion past the deadline; cursors are
// advanced so the next round continues the stream.
func closedLoop(c int, dur time.Duration, recs []*recorder, cursor []int, n int, do func(worker, i int) bool) round {
	type tally struct {
		ok, failed int64
		secs       float64
	}
	tallies := make([]tally, c)
	for wk := 0; wk < c; wk++ {
		recs[wk].reset()
	}
	var wg sync.WaitGroup
	before, began := readUsage(), time.Now()
	for wk := 0; wk < c; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, pos := recs[wk], cursor[wk]
			var t tally
			// time.Since reads only the monotonic clock: 33 ns here
			// against time.Now's 57, and it is paid twice per request.
			start := time.Since(began)
			deadline := start + dur
			for {
				t0 := time.Since(began)
				ok := do(wk, pos)
				t1 := time.Since(began)
				rec.add(int64(t1 - t0))
				if ok {
					t.ok++
				} else {
					t.failed++
				}
				if pos++; pos == n {
					pos = 0
				}
				if t1 >= deadline {
					t.secs = (t1 - start).Seconds()
					break
				}
			}
			cursor[wk] = pos
			tallies[wk] = t
		}()
	}
	wg.Wait()
	r := round{secs: time.Since(began).Seconds(), used: readUsage().sub(before)}
	for _, t := range tallies {
		r.attempted += t.ok + t.failed
		r.failed += t.failed
		r.rate += float64(t.ok) / t.secs
	}
	r.lat = summarize(recs[:c])
	return r
}
