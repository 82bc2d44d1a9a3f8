package testkit

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestScrape: the page parser keeps label values with spaces whole,
// reads an exemplar off labelled and bare series alike, and Settles
// sees nothing left of the scrape.
func TestScrape(t *testing.T) {
	const page = `# HELP a_total a counter
# TYPE a_total counter
a_total 3
# TYPE h_seconds histogram
h_seconds_bucket{stage="queue wait",le="0.001"} 4 # {trace_id="00ab"} 0.0002 1.500
h_seconds_bucket{stage="queue wait",le="+Inf"} 4
h_seconds_count 4 # {trace_id="ff"} 5
`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, page) // a failed write shows as a missing series below
	}))
	defer srv.Close()
	settled := Settles(t)

	m := Scrape(t, srv.URL)
	if m.Families["a_total"] != "counter" || m.Families["h_seconds"] != "histogram" || len(m.Families) != 2 {
		t.Errorf("families = %v", m.Families)
	}
	want := map[string]Sample{
		"a_total": {Value: 3},
		`h_seconds_bucket{stage="queue wait",le="0.001"}`: {Value: 4, TraceID: "00ab"},
		`h_seconds_bucket{stage="queue wait",le="+Inf"}`:  {Value: 4},
		"h_seconds_count": {Value: 4, TraceID: "ff"},
	}
	if len(m.Series) != len(want) {
		t.Errorf("series = %v, want %v", m.Series, want)
	}
	for k, w := range want {
		if got, ok := m.Series[k]; !ok || got != w {
			t.Errorf("series %s = %+v (present %v), want %+v", k, got, ok, w)
		}
	}
	settled("after a scrape")
}
