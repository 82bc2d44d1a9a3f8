package fault

import (
	"reflect"
	"testing"
)

// FuzzParseSchedule: an accepted schedule renders through String and
// parses back to an equal schedule, and no input panics.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"stall:srv=1,from=5s,until=10s;slow:srv=all,delay=200us",
		"drop:srv=0,p=0.3,delay=50ms;flap:srv=db,period=2s,duty=0.25",
		"slow:srv=0,p=0.05,delay=20us;drop:srv=1,p=0.02,delay=2ms",
		"reset:srv=2,from=1e-10,p=0;refuse:srv=db,until=3",
		"slow:delay=0.0000000001;;",
		"flap:srv=3,period=+Inf;drop:duty=1,period=-2",
		// the spacing every flagspec grammar reads alike.
		"reset:from=1, until=2", "reset:from = 1", "reset:from=1,,until=2", " \t ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		back, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("%q rendered as %q, which does not parse: %v", spec, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("%q rendered as %q, which parses to %+v, not %+v", spec, s.String(), back.Rules, s.Rules)
		}
	})
}
