package tenant

import "testing"

// FuzzParseSpecs: no input panics, accepted specs build a Limiter, and
// the Limiter's String parses back to one that renders the same.
func FuzzParseSpecs(f *testing.F) {
	for _, seed := range []string{
		"acme:class=gold,rate=500,burst=50,share=0.5;evil:rate=200,share=0.5",
		"victim;aggressor:rate=150,burst=80",
		"b:class=bronze,rate=1e3,byterate=1e6,byteburst=2048;*:rate=10",
		" x : share = 1 ;; y:class=silver,",
		// the spacing every flagspec grammar reads alike.
		"t:rate=1, burst=2", "t:rate = 1", "t:rate=1,,burst=2", " \t ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseSpecs(s)
		if err != nil {
			return
		}
		l, err := New(specs)
		if err != nil {
			t.Fatalf("ParseSpecs(%q) accepted %+v, which New rejects: %v", s, specs, err)
		}
		back, err := ParseSpecs(l.String())
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", s, l.String(), err)
		}
		l2, err := New(back)
		if err != nil {
			t.Fatal(err)
		}
		if l2.String() != l.String() {
			t.Fatalf("%q renders as %q, which renders back as %q", s, l.String(), l2.String())
		}
	})
}
