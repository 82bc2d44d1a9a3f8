package core

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	// Relative comparison with a tiny absolute floor so that
	// microsecond-scale quantities are compared meaningfully.
	return math.Abs(a-b) <= tol*math.Max(1e-15, math.Max(math.Abs(a), math.Abs(b)))
}

// facebook mirrors workload.Facebook without importing it (core must not
// depend on higher layers).
func facebook() *Config {
	return &Config{
		N:              150,
		LoadRatios:     BalancedLoad(4),
		TotalKeyRate:   4 * 62500,
		Q:              0.1,
		Xi:             0.15,
		MuS:            80000,
		MissRatio:      0.01,
		MuD:            1000,
		NetworkLatency: 20e-6,
	}
}

func TestBalancedLoad(t *testing.T) {
	p := BalancedLoad(4)
	if len(p) != 4 {
		t.Fatalf("len = %d", len(p))
	}
	for _, v := range p {
		if v != 0.25 {
			t.Fatalf("ratio %v != 0.25", v)
		}
	}
}

func TestUnbalancedLoad(t *testing.T) {
	p, err := UnbalancedLoad(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 0.7 {
		t.Errorf("p1 = %v", p[0])
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("sum = %v", sum)
	}
	if _, err := UnbalancedLoad(4, 0.1); err == nil {
		t.Error("p1 below 1/m accepted")
	}
	if _, err := UnbalancedLoad(4, 1.1); err == nil {
		t.Error("p1 > 1 accepted")
	}
	if _, err := UnbalancedLoad(0, 0.5); err == nil {
		t.Error("m=0 accepted")
	}
	// m=1 edge: p1 must be 1.
	p1, err := UnbalancedLoad(1, 1)
	if err != nil || len(p1) != 1 || p1[0] != 1 {
		t.Errorf("m=1: %v %v", p1, err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := facebook()
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero N", func(c *Config) { c.N = 0 }},
		{"empty ratios", func(c *Config) { c.LoadRatios = nil }},
		{"ratios not normalized", func(c *Config) { c.LoadRatios = []float64{0.5, 0.1} }},
		{"negative ratio", func(c *Config) { c.LoadRatios = []float64{1.5, -0.5} }},
		{"zero rate", func(c *Config) { c.TotalKeyRate = 0 }},
		{"q out of range", func(c *Config) { c.Q = 1 }},
		{"negative q", func(c *Config) { c.Q = -0.1 }},
		{"xi out of range", func(c *Config) { c.Xi = 1 }},
		{"zero muS", func(c *Config) { c.MuS = 0 }},
		{"miss ratio > 1", func(c *Config) { c.MissRatio = 1.5 }},
		{"negative miss ratio", func(c *Config) { c.MissRatio = -0.1 }},
		{"zero muD", func(c *Config) { c.MuD = 0 }},
		{"negative network", func(c *Config) { c.NetworkLatency = -1 }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			c := facebook()
			tt.mutate(c)
			if err := c.Validate(); err == nil {
				t.Errorf("mutation accepted")
			}
		})
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	c := facebook()
	if c.M() != 4 {
		t.Errorf("M = %d", c.M())
	}
	if !almostEqual(c.ServerKeyRate(0), 62500, 1e-9) {
		t.Errorf("server rate = %v", c.ServerKeyRate(0))
	}
	p1, idx := c.MaxLoadRatio()
	if p1 != 0.25 || idx != 0 {
		t.Errorf("max ratio %v@%d", p1, idx)
	}
	if !almostEqual(c.MaxUtilization(), 0.78125, 1e-9) {
		t.Errorf("max rho = %v", c.MaxUtilization())
	}
}

func TestServerQueueErrors(t *testing.T) {
	c := facebook()
	if _, err := c.ServerQueue(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := c.ServerQueue(4); err == nil {
		t.Error("out-of-range index accepted")
	}
	c2 := facebook()
	c2.LoadRatios = []float64{1, 0}
	if _, err := c2.ServerQueue(1); err == nil {
		t.Error("zero-load server queue built")
	}
}

func TestHeaviestQueueMatchesMaxRatio(t *testing.T) {
	c := facebook()
	ratios, err := UnbalancedLoad(4, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadRatios = ratios
	c.TotalKeyRate = 80000
	bq, err := c.HeaviestQueue()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(bq.KeyArrivalRate(), 0.6*80000, 1e-6) {
		t.Errorf("heaviest key rate = %v", bq.KeyArrivalRate())
	}
}
