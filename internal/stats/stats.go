// Package stats provides the small statistics toolkit the measurement
// side of the repository uses: an HDR-style logarithmic histogram for
// virtual-time latencies (deterministic, allocation-light) and its
// windowed form, Series, for open-loop runs.
//
// The paper reports means; a reproduction built on a deterministic
// simulator can do better and expose full delivery-latency distributions
// — in particular the long tail return-to-sender rejection adds under
// overload, which a mean hides.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"fm/internal/sim"
)

// subBuckets is the linear resolution inside each power-of-two major
// bucket: relative quantization error is bounded by 1/subBuckets.
const subBuckets = 32

// Histogram records sim.Duration samples in logarithmic buckets with
// bounded relative error (~3%). The zero value is ready to use.
type Histogram struct {
	counts [64 * subBuckets]uint64
	n      uint64
	sum    sim.Duration
	min    sim.Duration
	max    sim.Duration
}

// bucket maps a non-negative duration to its bucket index.
func bucket(d sim.Duration) int {
	v := uint64(d)
	if v < subBuckets {
		return int(v) // exact for tiny values
	}
	msb := 63 - bits.LeadingZeros64(v)
	shift := msb - 5 // keep the top 6 bits: 1 implicit + 5 sub-bucket
	sub := int(v>>uint(shift)) - subBuckets
	return (msb-5)*subBuckets + subBuckets + sub
}

// lower returns a representative (lower-bound) value for bucket i.
func lower(i int) sim.Duration {
	if i < subBuckets {
		return sim.Duration(i)
	}
	major := (i - subBuckets) / subBuckets
	sub := (i - subBuckets) % subBuckets
	return sim.Duration((uint64(subBuckets) + uint64(sub)) << uint(major))
}

// Record adds one sample. Negative samples are a programming error.
func (h *Histogram) Record(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("stats: negative sample %v", d))
	}
	h.counts[bucket(d)]++
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Empty-histogram contract: every query on a histogram with no samples
// returns its zero value — Mean, Min, Max, and Percentile (at any p)
// return 0. Callers may therefore ask without checking Count first;
// windowed series lean on this, since an idle window's percentiles must
// print as zeros, not panic or fabricate values. Pinned by
// TestEmptyHistogramContract.

// Mean returns the arithmetic mean of the samples (0 with no samples).
func (h *Histogram) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.n)
}

// Min returns the smallest recorded sample (0 with no samples).
func (h *Histogram) Min() sim.Duration { return h.min }

// Max returns the largest recorded sample (0 with no samples).
func (h *Histogram) Max() sim.Duration { return h.max }

// Percentile returns the value at or below which fraction p (0..1] of
// samples fall, with the histogram's relative quantization error. With
// no samples it returns 0 for every p.
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	// The target rank is the ceiling of p*n: the smallest rank whose
	// cumulative share reaches p. Truncating instead (the seed's bug)
	// underestimated by up to one full rank — the p50 of 3 samples came
	// back as the minimum. The epsilon guards against float error in
	// p*n pushing an exact product just above an integer (0.1*30 ->
	// 3.0000000000000004 must stay rank 3).
	target := uint64(math.Ceil(p*float64(h.n) - 1e-9))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= target {
			v := lower(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}
