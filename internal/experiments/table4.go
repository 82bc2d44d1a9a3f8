package experiments

import (
	"fmt"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/workload"
)

// paperTable4 holds the paper's published ρS(ξ) values for side-by-side
// comparison.
var paperTable4 = map[float64]float64{
	0.00: 0.77, 0.05: 0.76, 0.10: 0.76, 0.15: 0.75, 0.20: 0.74,
	0.25: 0.73, 0.30: 0.72, 0.35: 0.71, 0.40: 0.69, 0.45: 0.67,
	0.50: 0.65, 0.55: 0.62, 0.60: 0.59, 0.65: 0.55, 0.70: 0.50,
	0.75: 0.45, 0.80: 0.39, 0.85: 0.31, 0.90: 0.21, 0.95: 0.09,
}

// Table4 reproduces the paper's Table 4: the utilization cliff ρS(ξ) for
// each burst degree, via both detectors (DESIGN.md §4.2).
func Table4(Budget) (*Report, error) {
	start := time.Now()
	xis := core.PaperTable4Xis()
	deltaRows, err := core.CliffTable(xis, workload.FacebookQ, core.CliffDeltaThreshold)
	if err != nil {
		return nil, err
	}
	slopeRows, err := core.CliffTable(xis, workload.FacebookQ, core.CliffSlope)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, xi := range xis {
		paper := "-"
		if v, ok := paperTable4[xi]; ok {
			paper = pct(v)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", xi),
			pct(deltaRows[i].Utilization),
			pct(slopeRows[i].Utilization),
			paper,
		})
	}
	return &Report{
		ID:      "table4",
		Title:   "cliff utilization ρS(ξ) (q=0.1)",
		Columns: []string{"ξ", "δ-threshold", "slope", "paper"},
		Rows:    rows,
		Notes: []string{
			"both detectors are calibrated at ξ=0 → 77% (paper's anchor); " +
				"Proposition 2 guarantees the value depends only on ξ",
			"the slope detector saturates to ~0% for ξ ≥ 0.8: with such heavy tails the " +
				"relative latency sensitivity exceeds the calibrated threshold at every " +
				"utilization — the curve is 'all cliff'",
		},
		Elapsed: time.Since(start),
	}, nil
}
