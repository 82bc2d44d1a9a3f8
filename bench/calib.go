package main

import (
	"sort"
	"time"
)

// echoRef is the calibration loop's rate (requests/s) on the box the
// seed numbers were recorded on, in its usual state. It only fixes the
// scale of the corrected values; any constant would make them comparable.
const echoRef = 185_000

// A calibrator measures how fast the machine is right now: the same
// closed loop at the same C as the workload, against an echo goroutine
// in this process, in short rounds before and after the workload's.
// Every time-valued end-to-end metric is reported scaled by it (README
// "Machine-speed correction").
type calibrator struct {
	echo   *echoServer
	driver *rawDriver
	rates  []float64
}

func newCalibrator() (*calibrator, error) {
	es, err := startEcho()
	if err != nil {
		return nil, err
	}
	// One fixed small message: the probe is of wakeups, not of bytes.
	probe := [][]cmd{{{req: make([]byte, 32), reply: 128}}}
	d, err := newRawDriver(probe, []string{es.l.Addr().String()}, false, true)
	if err != nil {
		es.close()
		return nil, err
	}
	return &calibrator{echo: es, driver: d}, nil
}

// rounds runs calibration rounds of dur each for total.
func (c *calibrator) rounds(recs []*recorder, dur, total time.Duration) {
	for ; total > 0; total -= dur {
		r := closedLoop(conns, dur, recs, make([]int, conns), 1, c.driver.do)
		c.rates = append(c.rates, r.rate)
	}
}

// speed is the machine's speed relative to the reference box: the
// median of the quiet fifth of the calibration rounds over echoRef.
func (c *calibrator) speed() float64 {
	s := append([]float64(nil), c.rates...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return median(s[:max(1, len(s)/5)]) / echoRef
}

func (c *calibrator) close() {
	c.driver.close()
	c.echo.close()
}
