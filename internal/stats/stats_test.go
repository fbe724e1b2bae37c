package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fm/internal/sim"
)

// TestEmptyHistogramContract pins the documented zero-value contract:
// every query on an empty histogram returns its zero value, so callers
// (windowed series printing idle windows, drivers summarizing runs with
// no stampable messages) never have to check Count first.
func TestEmptyHistogramContract(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram not zero-valued")
	}
	for _, p := range []float64{-1, 0, 0.5, 0.99, 0.999, 1, 2} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("Percentile(%v) = %v on empty histogram, want 0", p, got)
		}
	}
	if h.Summary() != "no samples" {
		t.Errorf("summary = %q", h.Summary())
	}

	// Merging an empty histogram into a populated one must not disturb
	// it (in particular not clobber min), and merging into an empty one
	// must reproduce the source exactly.
	var empty, pop Histogram
	pop.Record(5 * sim.Microsecond)
	before := pop
	pop.Merge(&empty)
	if pop != before {
		t.Error("merging an empty histogram changed the target")
	}
	var dst Histogram
	dst.Merge(&pop)
	if dst != pop {
		t.Error("merge into empty histogram did not reproduce the source")
	}
}

func TestSingleSample(t *testing.T) {
	var h Histogram
	h.Record(25 * sim.Microsecond)
	if h.Count() != 1 {
		t.Fatal("count")
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		got := h.Percentile(p)
		if got != 25*sim.Microsecond {
			t.Errorf("p%.0f = %v", 100*p, got)
		}
	}
	if h.Mean() != 25*sim.Microsecond || h.Min() != h.Max() {
		t.Error("scalar stats wrong")
	}
}

func TestNegativeSamplePanics(t *testing.T) {
	var h Histogram
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h.Record(-1)
}

// TestPercentileAccuracy: percentiles on a known uniform distribution
// must land within the histogram's ~3% relative error.
func TestPercentileAccuracy(t *testing.T) {
	var h Histogram
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Record(sim.Duration(i) * sim.Nanosecond)
	}
	for _, p := range []float64{0.10, 0.50, 0.90, 0.99} {
		want := float64(p * n)
		got := h.Percentile(p).Nanoseconds()
		if got < want*0.93 || got > want*1.07 {
			t.Errorf("p%.0f = %.0f ns, want ~%.0f", 100*p, got, want)
		}
	}
	wantMean := float64(n+1) / 2
	if got := h.Mean().Nanoseconds(); got < wantMean*0.99 || got > wantMean*1.01 {
		t.Errorf("mean = %.0f, want ~%.0f", got, wantMean)
	}
}

// TestPercentileAgainstOracle: random samples, percentile must be within
// quantization error of the exact order statistic.
func TestPercentileAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		n := 100 + rng.Intn(2000)
		samples := make([]float64, n)
		for i := range samples {
			v := sim.Duration(rng.Int63n(int64(10 * sim.Millisecond)))
			samples[i] = float64(v)
			h.Record(v)
		}
		sort.Float64s(samples)
		for _, p := range []float64{0.25, 0.5, 0.95} {
			idx := int(p*float64(n)) - 1
			if idx < 0 {
				idx = 0
			}
			exact := samples[idx]
			got := float64(h.Percentile(p))
			// Allow quantization (3.2%) plus one rank of slack.
			lo, hi := exact*0.90, exact*1.10+float64(sim.Nanosecond)
			if got < lo-1 || got > hi+samples[n-1]*0.04 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Record(sim.Duration(rng.Int63n(int64(sim.Second))))
	}
	prev := sim.Duration(-1)
	for p := 0.01; p <= 1.0; p += 0.01 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotonic at p=%.2f: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(sim.Microsecond)
		b.Record(3 * sim.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Mean() != 2*sim.Microsecond {
		t.Errorf("mean = %v", a.Mean())
	}
	if a.Min() != sim.Microsecond || a.Max() != 3*sim.Microsecond {
		t.Error("min/max wrong after merge")
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 200 {
		t.Error("merging empty changed count")
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// lower(bucket(v)) <= v and within ~3.2% below it.
	for _, v := range []sim.Duration{0, 1, 31, 32, 33, 1000, 12345, 1 << 20, 1 << 40, 987654321012} {
		b := bucket(v)
		lo := lower(b)
		if lo > v {
			t.Errorf("lower(bucket(%d)) = %d > sample", v, lo)
		}
		if v >= subBuckets && float64(v-lo) > float64(v)/float64(subBuckets)+1 {
			t.Errorf("quantization of %d too coarse: lower %d", v, lo)
		}
	}
}

// TestPercentileSmallOddCounts pins the ceiling-rank fix: with a handful
// of samples the truncating rank underestimated by one — the p50 of
// three samples came back as the minimum. Values below 32 are exact
// (sub-bucket resolution), so these expectations have no quantization
// slack.
func TestPercentileSmallOddCounts(t *testing.T) {
	record := func(vals ...int) *Histogram {
		var h Histogram
		for _, v := range vals {
			h.Record(sim.Duration(v))
		}
		return &h
	}

	if got := record(10).Percentile(0.5); got != 10 {
		t.Errorf("p50 of {10} = %v, want 10", got)
	}
	h3 := record(10, 20, 30)
	if got := h3.Percentile(0.5); got != 20 {
		t.Errorf("p50 of {10,20,30} = %v, want the middle sample 20", got)
	}
	if got := h3.Percentile(0.90); got != 30 {
		t.Errorf("p90 of {10,20,30} = %v, want 30", got)
	}
	h5 := record(1, 2, 3, 4, 5)
	if got := h5.Percentile(0.5); got != 3 {
		t.Errorf("p50 of {1..5} = %v, want 3", got)
	}
	if got := h5.Percentile(0.2); got != 1 {
		t.Errorf("p20 of {1..5} = %v, want 1", got)
	}
	if got := h5.Percentile(0.21); got != 2 {
		t.Errorf("p21 of {1..5} = %v, want 2", got)
	}
	// Exact-product ranks must not drift up from float error.
	h30 := record(make30()...)
	if got := h30.Percentile(0.1); got != 3 {
		t.Errorf("p10 of {1..30} = %v, want rank 3", got)
	}
}

func make30() []int {
	out := make([]int, 30)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
