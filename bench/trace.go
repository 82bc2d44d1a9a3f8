package main

import (
	"os"
	"path/filepath"
	"sort"

	"memqlat/internal/otrace"
)

// traceRing is the tracer's span ring on the traced run.
const traceRing = 1 << 18

// selfTimes is the mean self time per request (seconds) by tier over
// the complete trees, plus how many trees there were.
type selfTimes struct {
	bench, client, wire, proxy, server float64
	complete, traces                   int
}

type interval struct{ lo, hi float64 }

// covered returns how much of [lo, hi] the intervals cover.
func covered(lo, hi float64, ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, at := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv.lo, at), min(iv.hi, hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// analyze computes per-tier self time from the spans left in the ring.
//
// A span's self time is its duration minus the part of its interval that
// its descendants cover. (Descendants rather than children because the
// proxy's hop span closes once the command is forwarded, so the server
// span it parents runs after it; clipped to the ancestor's interval the
// two definitions agree wherever children nest.) The client/rpc span's
// self time is reported as "wire": kernel, wakeups, read-to-parse, and
// the proxy's unspanned reply relay.
//
// A tree is complete when it has exactly one root, every span's parent
// is present, and every rpc reached a server whose service span is also
// present; anything else (ring eviction, a request in flight at the
// snapshot) is not counted. The harness's bench/op spans are their own
// traces - client.Get takes no parent context - and are joined to the
// client root they contain by interval: among the workers' bench spans
// open at the root's start, the one that starts closest before it.
func analyze(spans []otrace.Span) selfTimes {
	var bench [conns][]otrace.Span
	byTrace := make(map[uint64][]otrace.Span)
	for _, sp := range spans {
		if sp.Comp == "bench" {
			if sp.Server >= 0 && sp.Server < conns {
				bench[sp.Server] = append(bench[sp.Server], sp)
			}
			continue
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	for w := range bench {
		sort.Slice(bench[w], func(i, j int) bool { return bench[w][i].Start < bench[w][j].Start })
	}
	claimed := make(map[uint64]int) // bench span ID -> roots that chose it

	type tree struct {
		treeTimes
		benchID   uint64
		benchSelf float64
	}
	var trees []tree
	st := selfTimes{traces: len(byTrace)}
	for _, ss := range byTrace {
		t, ok := treeSelf(ss)
		if !ok {
			continue
		}
		tr := tree{treeTimes: t}
		// Join the harness span by containment.
		bestGap := -1.0
		for w := range bench {
			i := sort.Search(len(bench[w]), func(i int) bool { return bench[w][i].Start > t.root.Start }) - 1
			if i < 0 {
				continue
			}
			b := bench[w][i]
			if b.Start+b.Dur < t.root.Start+t.root.Dur {
				continue
			}
			if gap := t.root.Start - b.Start; bestGap < 0 || gap < bestGap {
				bestGap, tr.benchID, tr.benchSelf = gap, b.ID, b.Dur-t.root.Dur
			}
		}
		if tr.benchID == 0 {
			continue
		}
		claimed[tr.benchID]++
		trees = append(trees, tr)
	}
	for _, tr := range trees {
		if claimed[tr.benchID] != 1 {
			continue
		}
		st.complete++
		st.bench += tr.benchSelf
		st.client += tr.client
		st.wire += tr.wire
		st.proxy += tr.proxy
		st.server += tr.server
	}
	if n := float64(st.complete); n > 0 {
		st.bench /= n
		st.client /= n
		st.wire /= n
		st.proxy /= n
		st.server /= n
	}
	return st
}

type treeTimes struct {
	root                        otrace.Span
	client, wire, proxy, server float64
}

// treeSelf sums self time by tier over one trace's spans; ok is false
// when the tree is incomplete.
func treeSelf(ss []otrace.Span) (t treeTimes, ok bool) {
	byID := make(map[uint64]int, len(ss))
	for i, sp := range ss {
		byID[sp.ID] = i
	}
	roots, rpcs, handles, services := 0, 0, 0, 0
	desc := make([][]interval, len(ss)) // descendants' intervals per span
	for _, sp := range ss {
		switch {
		case sp.Parent == 0:
			roots++
			t.root = sp
		case sp.Comp == "client" && sp.Name == "rpc":
			rpcs++
		case sp.Comp == "server" && sp.Name == "handle":
			handles++
		case sp.Comp == "server" && sp.Name == "service":
			services++
		}
		for p := sp.Parent; p != 0; {
			i, present := byID[p]
			if !present {
				return t, false
			}
			desc[i] = append(desc[i], interval{sp.Start, sp.Start + sp.Dur})
			p = ss[i].Parent
		}
	}
	if roots != 1 || t.root.Comp != "client" || rpcs == 0 || handles != rpcs || services != handles {
		return t, false
	}
	for i, sp := range ss {
		self := sp.Dur - covered(sp.Start, sp.Start+sp.Dur, desc[i])
		switch {
		case sp.Comp == "client" && sp.Name == "rpc":
			t.wire += self
		case sp.Comp == "client":
			t.client += self
		case sp.Comp == "proxy":
			t.proxy += self
		case sp.Comp == "server":
			t.server += self
		}
	}
	return t, true
}

// writeTrace writes the retained spans as Chrome trace JSON.
func writeTrace(dir, name string, spans []otrace.Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := otrace.WriteChrome(f, spans); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
