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

// offLive counts the rows each section with live legs renders from
// its other legs.
var offLive = map[string]int{"hotkey": 6, "noisy": 6, "proxied": 9, "tiered": 5, "live": 0, "drift": 5}

// TestReproGolden holds the "REPRO byte-identical" invariant refactors
// of the model and the simulators are held to, at the quick budget,
// seed 1. The sections with no live leg (table3 … crossplane) must
// re-render byte-identical to the recorded text, timings aside. The
// sections after them run only their legs off the live plane: each row
// and note those produce must be a recorded one, in order, and their
// header must be the recorded header.
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
	live := false
	for _, e := range experiments.All() {
		whole := !live
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want, ok := recorded[e.ID]
			if !ok {
				t.Fatalf("REPRO_OUTPUT.txt has no %s section", e.ID)
			}
			report, err := e.Run(budget, false)
			if err != nil {
				t.Fatal(err)
			}
			msg := firstDiff(report.Render(), want)
			if !whole {
				msg = recordedRows(report, want)
			}
			if n, ok := offLive[e.ID]; ok && len(report.Rows) != n {
				t.Errorf("%s ran %d rows off the live plane, want %d", e.ID, len(report.Rows), n)
			}
			if msg != "" {
				t.Errorf("%s differs from REPRO_OUTPUT.txt:\n%s", e.ID, msg)
			}
		})
		if e.ID == "crossplane" {
			live = true // the sections after it have live legs
		}
	}
}

// recordedRows checks a report run without its live legs against the
// recorded section: its header, then each row rendered at the recorded
// column widths and each note must be a recorded line, in order. It
// describes the first line that is not ("" when all are).
func recordedRows(report *experiments.Report, want string) string {
	lines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	if len(lines) < 3 {
		return "recorded section has no table"
	}
	var widths []int
	for _, dashes := range strings.Split(lines[2], "  ") {
		widths = append(widths, len(dashes))
	}
	if len(widths) != len(report.Columns) {
		return fmt.Sprintf("%d columns, recorded %d", len(report.Columns), len(widths))
	}
	render := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		return b.String()
	}
	got := []string{render(report.Columns)}
	for _, row := range report.Rows {
		got = append(got, render(row))
	}
	for _, n := range report.Notes {
		got = append(got, "note: "+n)
	}
	if got[0] != lines[1] {
		return fmt.Sprintf("header\n  got:  %s\n  want: %s", got[0], lines[1])
	}
	next := 2
	for _, line := range got[1:] {
		for next < len(lines) && lines[next] != line {
			next++
		}
		if next == len(lines) {
			return fmt.Sprintf("not a recorded line, or out of order:\n  got: %s", line)
		}
		next++
	}
	return ""
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
