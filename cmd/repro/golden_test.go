package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"

	"memqlat/internal/experiments"
)

// ranIn is the one wall-clock field of a deterministic section.
var ranIn = regexp.MustCompile(` \(ran in [^)]*\)`)

// TestReproGolden re-renders every section of REPRO_OUTPUT.txt with no
// live leg (table3 … crossplane) at the quick budget, seed 1, and
// requires it byte-identical to the recorded text, timings aside: the
// "REPRO byte-identical" invariant refactors of the model and the
// simulators are held to.
func TestReproGolden(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("-race: the recorded sections are checked by the plain run")
			}
		}
	}
	data, err := os.ReadFile("../../REPRO_OUTPUT.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]string{}
	for _, sec := range strings.Split("\n"+string(data), "\n== ")[1:] {
		id, _, _ := strings.Cut(sec, " ")
		recorded[id] = "== " + sec
	}
	budget := experiments.Quick
	budget.Seed = 1
	for _, e := range experiments.All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want, ok := recorded[e.ID]
			if !ok {
				t.Fatalf("REPRO_OUTPUT.txt has no %s section", e.ID)
			}
			report, err := e.Run(budget)
			if err != nil {
				t.Fatal(err)
			}
			if msg := firstDiff(report.Render(), want); msg != "" {
				t.Errorf("%s differs from REPRO_OUTPUT.txt:\n%s", e.ID, msg)
			}
		})
		if e.ID == "crossplane" {
			break // the sections after it run the live stack
		}
	}
}

// firstDiff compares two renderings with timings stripped and describes
// the first few lines that differ ("" when none do).
func firstDiff(got, want string) string {
	g := strings.Split(strings.TrimRight(ranIn.ReplaceAllString(got, ""), "\n"), "\n")
	w := strings.Split(strings.TrimRight(ranIn.ReplaceAllString(want, ""), "\n"), "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(g), len(w)) && shown < 5; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			fmt.Fprintf(&b, "line %d\n  got:  %s\n  want: %s\n", i+1, gl, wl)
			shown++
		}
	}
	return b.String()
}
