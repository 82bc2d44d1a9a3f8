package main

import (
	"fmt"
	"strconv"
	"testing"

	"memqlat/internal/plane"
)

// formatExtstoreSpec renders a spec in the -extstore grammar: every
// field, dist only when set (an empty value does not parse).
func formatExtstoreSpec(e *plane.ExtstoreSpec) string {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	s := fmt.Sprintf("ram=%d,total=%d,mud=%s,sigma=%s", e.RAMItems, e.TotalItems, g(e.MuDisk), g(e.DiskSigma))
	if e.DiskDist != "" {
		s += ",dist=" + e.DiskDist
	}
	return s
}

// sameFloat is == that also holds between two NaNs.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

// FuzzParseExtstoreSpec: no input panics, and an accepted spec, rendered
// back into the grammar, parses to an equal spec.
func FuzzParseExtstoreSpec(f *testing.F) {
	for _, seed := range []string{
		"ram=200,total=1200,mud=2000",
		"ram=200, total=1200,mudisk=2000,dist=lognormal,sigma=0.7",
		"mud=Inf,sigma=NaN,dist=a=b",
		"ram=+07,total=-1,mud=1e-3,ram=3",
		"",
		",",
		// the spacing every flagspec grammar reads alike.
		"ram=1, total=2", "ram = 1", "ram=1,,total=2", " \t ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parseExtstoreSpec(s)
		if err != nil || spec == nil {
			return
		}
		text := formatExtstoreSpec(spec)
		back, err := parseExtstoreSpec(text)
		if err != nil {
			t.Fatalf("%q parses to %+v, which renders as %q and does not parse: %v", s, *spec, text, err)
		}
		if back.RAMItems != spec.RAMItems || back.TotalItems != spec.TotalItems ||
			!sameFloat(back.MuDisk, spec.MuDisk) || back.DiskDist != spec.DiskDist ||
			!sameFloat(back.DiskSigma, spec.DiskSigma) {
			t.Fatalf("%q parses to %+v; its rendering %q parses to %+v", s, *spec, text, *back)
		}
	})
}
