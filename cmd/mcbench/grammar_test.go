package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memqlat/internal/fault"
	"memqlat/internal/slo"
	"memqlat/internal/tenant"
)

// TestFlagGrammarsAgree gives the four key=value flags mcbench reads the
// same spacing and expects one verdict from all of them: each spelling
// parses, to what its tight form parses to. A and B are two keys of the
// grammar, and head the "kind:"/"name:" a -faults rule or -tenants
// entry opens with.
func TestFlagGrammarsAgree(t *testing.T) {
	grammars := []struct {
		flag, head, a, b string
		parse            func(string) (any, error)
	}{
		{"-slo", "", "window", "band", func(s string) (any, error) { return slo.ParseSpec(s, nil) }},
		{"-faults", "reset:", "from", "until", func(s string) (any, error) { return fault.ParseSchedule(s) }},
		{"-tenants", "t:", "rate", "burst", func(s string) (any, error) { return tenant.ParseSpecs(s) }},
		{"-extstore", "", "ram", "total", func(s string) (any, error) { return parseExtstoreSpec(s) }},
	}
	for _, in := range []struct{ spaced, tight string }{
		{"%[1]s=1, %[2]s=2", "%[1]s=1,%[2]s=2"},
		{"%[1]s = 1", "%[1]s=1"},
		{"%[1]s=1,,%[2]s=2", "%[1]s=1,%[2]s=2"},
		{" \t ", ""},
	} {
		for _, g := range grammars {
			spec := func(format string) string {
				if strings.TrimSpace(format) == "" {
					return format
				}
				return g.head + fmt.Sprintf(format, g.a, g.b)
			}
			want, err := g.parse(spec(in.tight))
			if err != nil {
				t.Fatalf("%s %q: %v", g.flag, spec(in.tight), err)
			}
			got, err := g.parse(spec(in.spaced))
			if err != nil {
				t.Errorf("%s %q refused: %v", g.flag, spec(in.spaced), err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q parses to %+v, %q to %+v", g.flag, spec(in.spaced), got, spec(in.tight), want)
			}
		}
	}
}
