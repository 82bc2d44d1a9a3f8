package plane

import (
	"memqlat/internal/fault"
	"memqlat/internal/server"
	"memqlat/internal/sim"
)

// faultTier is the fault-schedule unit. The simulator evaluates the
// schedule in virtual time; the live plane injects the same rules in wall
// time through one injector that every server and the backend share, on
// the run clock (which starts when the load does, so populate runs
// healthy), and both see the identical deterministic per-rule decision
// sequence. The model ignores it: Theorem 1 has no failure modes, which
// is exactly the gap the faulted planes measure.
func (s Scenario) faultTier() tier {
	var inj *fault.Injector
	point := func(r *LiveRun, srv int) *fault.Point {
		return &fault.Point{Inj: inj, Server: srv, Now: r.clock.Now}
	}
	return tier{
		name:  "fault injection",
		lower: func(rc *sim.RequestConfig) error { rc.Faults = s.Faults; return nil },
		server: func(r *LiveRun, i int, o *server.Options) (err error) {
			if inj == nil {
				if inj, err = fault.NewInjector(s.Faults, len(s.LoadRatios)); err != nil {
					return err
				}
			}
			o.Fault = point(r, i)
			return nil
		},
		drive: func(r *LiveRun, d *driver) error { d.db.Fault = point(r, fault.Database); return nil },
	}
}

// resilienceTier is the recovery-policy unit: the live client and the
// composition simulator apply the same retries, hedged reads and circuit
// breakers. The model ignores it.
func (s Scenario) resilienceTier() tier {
	return tier{
		name:  "resilience policies",
		lower: func(rc *sim.RequestConfig) error { rc.Resilience = s.Resilience; return nil },
		drive: func(_ *LiveRun, d *driver) error { d.client.Resilience = s.Resilience; return nil },
	}
}
