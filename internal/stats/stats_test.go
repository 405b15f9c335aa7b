package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileEmpty(t *testing.T) {
	s := NewSample(0)
	if !math.IsNaN(s.Percentile(50)) {
		t.Fatal("empty sample percentile should be NaN")
	}
	if !math.IsNaN(s.Mean()) {
		t.Fatal("empty sample mean should be NaN")
	}
}

func TestPercentileSingle(t *testing.T) {
	s := NewSample(1)
	s.Add(42)
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Fatalf("p%.0f = %v, want 42", p, got)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := NewSample(2)
	s.Add(0)
	s.Add(10)
	if got := s.Percentile(50); got != 5 {
		t.Fatalf("median of {0,10} = %v, want 5", got)
	}
	if got := s.Percentile(25); got != 2.5 {
		t.Fatalf("p25 of {0,10} = %v, want 2.5", got)
	}
}

func TestPercentileKnownDistribution(t *testing.T) {
	s := NewSample(101)
	for i := 0; i <= 100; i++ {
		s.Add(float64(i))
	}
	for _, p := range []float64{10, 25, 50, 75, 90} {
		if got := s.Percentile(p); math.Abs(got-p) > 1e-9 {
			t.Fatalf("p%.0f = %v, want %v", p, got, p)
		}
	}
}

func TestMinMaxMean(t *testing.T) {
	s := NewSample(3)
	s.Add(3)
	s.Add(1)
	s.Add(8)
	if s.Min() != 1 || s.Max() != 8 || s.Mean() != 4 {
		t.Fatalf("min=%v max=%v mean=%v", s.Min(), s.Max(), s.Mean())
	}
}

func TestAddDurationUsesMilliseconds(t *testing.T) {
	s := NewSample(1)
	s.AddDuration(1500 * time.Millisecond)
	if s.Max() != 1500 {
		t.Fatalf("duration recorded as %v ms, want 1500", s.Max())
	}
}

func TestCDFAt(t *testing.T) {
	s := NewSample(4)
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	cases := []struct{ v, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := s.CDFAt(c.v); got != c.want {
			t.Fatalf("CDFAt(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSample(0)
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(r.NormFloat64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return s.Percentile(0) == s.Min() && s.Percentile(100) == s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDFAt(v) matches the definition count(values<=v)/n.
func TestCDFProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSample(0)
		n := 1 + r.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(20)) // force duplicates
			s.Add(vals[i])
		}
		probe := vals[r.Intn(n)]
		count := 0
		for _, v := range vals {
			if v <= probe {
				count++
			}
		}
		return s.CDFAt(probe) == float64(count)/float64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding values in any order yields identical percentiles.
func TestOrderInsensitiveProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 1000
		}
		a := NewSample(n)
		for _, v := range vals {
			a.Add(v)
		}
		sort.Float64s(vals)
		b := NewSample(n)
		for _, v := range vals {
			b.Add(v)
		}
		for p := 0.0; p <= 100; p += 12.5 {
			if a.Percentile(p) != b.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
