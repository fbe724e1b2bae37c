package workload

import (
	"reflect"
	"testing"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
	"fm/internal/stats"
)

func sourceCatalog() []Source {
	base := UniformRandom{Seed: 42, Packets: 4}
	return []Source{
		PoissonSource{Base: base, Seed: 7, MeanGap: 5 * sim.Microsecond, Horizon: 200 * sim.Microsecond},
		FixedRateSource{Base: base, Gap: 5 * sim.Microsecond, Horizon: 200 * sim.Microsecond},
	}
}

// Sources are Patterns: pure, bounded by the horizon, nondecreasing
// arrival instants, destinations cycling the base pattern's list.
func TestSourcesPureAndBounded(t *testing.T) {
	for _, src := range sourceCatalog() {
		for _, n := range []int{2, 8, 16} {
			for rank := 0; rank < n; rank++ {
				a := src.Gen(rank, n)
				if !reflect.DeepEqual(a, src.Gen(rank, n)) {
					t.Fatalf("%s: Gen(%d, %d) not reproducible", src.Name(), rank, n)
				}
				base := (UniformRandom{Seed: 42, Packets: 4}).Gen(rank, n)
				prev := sim.Duration(0)
				for i, s := range a {
					if s.At < prev {
						t.Fatalf("%s: arrivals out of order at %d: %v after %v", src.Name(), i, s.At, prev)
					}
					prev = s.At
					if s.At >= src.SourceHorizon() {
						t.Fatalf("%s: arrival %v past horizon %v", src.Name(), s.At, src.SourceHorizon())
					}
					if want := base[i%len(base)].Dst; s.Dst != want {
						t.Fatalf("%s: arrival %d goes to %d, want base cycle %d", src.Name(), i, s.Dst, want)
					}
				}
			}
		}
	}
}

// The Poisson process is seeded per rank: distinct seeds give distinct
// schedules, distinct ranks give independent streams, and the arrival
// count tracks horizon/mean-gap.
func TestPoissonSeedStreams(t *testing.T) {
	mk := func(seed uint64) PoissonSource {
		return PoissonSource{Base: AllToAll{Rounds: 1}, Seed: seed,
			MeanGap: 2 * sim.Microsecond, Horizon: 400 * sim.Microsecond}
	}
	a, b := mk(1).Gen(0, 8), mk(2).Gen(0, 8)
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical schedules")
	}
	if reflect.DeepEqual(mk(1).Gen(0, 8), mk(1).Gen(1, 8)) {
		t.Error("different ranks produced identical schedules")
	}
	// ~200 expected arrivals; a factor-2 band catches degenerate draws.
	if len(a) < 100 || len(a) > 400 {
		t.Errorf("arrival count %d far from expected ~200", len(a))
	}
}

// Fixed-rate ranks are staggered by Gap*src/n so ticks interleave.
func TestFixedRateStagger(t *testing.T) {
	src := FixedRateSource{Base: AllToAll{Rounds: 1}, Gap: 8 * sim.Microsecond, Horizon: 100 * sim.Microsecond}
	r0, r4 := src.Gen(0, 8), src.Gen(4, 8)
	if r0[0].At != 0 {
		t.Errorf("rank 0 first arrival at %v, want 0", r0[0].At)
	}
	if want := 4 * sim.Microsecond; r4[0].At != want {
		t.Errorf("rank 4 first arrival at %v, want %v", r4[0].At, want)
	}
	for i := 1; i < len(r0); i++ {
		if r0[i].At-r0[i-1].At != src.Gap {
			t.Fatalf("gap %v at arrival %d, want %v", r0[i].At-r0[i-1].At, i, src.Gap)
		}
	}
}

func soakSeriesEqual(a, b *stats.Series) bool {
	if a.Width() != b.Width() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if *a.Window(i) != *b.Window(i) {
			return false
		}
	}
	return true
}

// A soak drive is deterministic: identical inputs give identical
// timelines, window for window, histogram bucket for bucket.
func TestSoakDriveDeterministic(t *testing.T) {
	p := cost.Default()
	cfg := core.DefaultConfig()
	src := PoissonSource{Base: UniformRandom{Seed: 42, Packets: 4}, Seed: 7,
		MeanGap: 10 * sim.Microsecond, Horizon: 200 * sim.Microsecond}
	opt := SoakOptions{Width: 50 * sim.Microsecond}
	a := SoakDriveFM(ClosSpec(16), cfg, p, src, 112, opt)
	b := SoakDriveFM(ClosSpec(16), cfg, p, src, 112, opt)
	if a.Elapsed != b.Elapsed || !soakSeriesEqual(a.Series, b.Series) {
		t.Fatal("repeated soak drives diverged")
	}
	if a.Messages == 0 {
		t.Fatal("soak generated no traffic")
	}
	off, del, bytes, _ := a.Series.Totals()
	if int(off) != a.Messages || int(del) != a.Messages {
		t.Fatalf("series totals %d offered / %d delivered, want %d both", off, del, a.Messages)
	}
	if int64(bytes) != a.PayloadBytes {
		t.Fatalf("series bytes %d, want %d", bytes, a.PayloadBytes)
	}
	if a.Latency.Count() != uint64(a.Messages) {
		t.Fatalf("latency samples %d, want %d", a.Latency.Count(), a.Messages)
	}
	if a.Series.Len() < a.HorizonWindows() {
		t.Fatalf("series spans %d windows, horizon needs %d", a.Series.Len(), a.HorizonWindows())
	}
	// The drain guarantee: in-flight is zero at the end of the timeline.
	if in := a.Series.InFlight(a.Series.Len() - 1); in != 0 {
		t.Fatalf("in-flight %d at quiescence, want 0", in)
	}
}

// Open-loop overload: past the service capacity the backlog and the
// windowed sojourn p99 must grow across the horizon — the saturation
// signature batch drivers cannot show.
func TestSoakOverloadBacklogGrows(t *testing.T) {
	p := cost.Default()
	cfg := core.DefaultConfig()
	mk := func(gap sim.Duration) SoakResult {
		return SoakDriveFM(ClosSpec(16), cfg, p,
			PoissonSource{Base: UniformRandom{Seed: 42, Packets: 4}, Seed: 7,
				MeanGap: gap, Horizon: 300 * sim.Microsecond},
			112, SoakOptions{Width: 50 * sim.Microsecond, Mode: TerminateHorizon})
	}
	light := mk(40 * sim.Microsecond) // ~2.8 MB/s per node, far below capacity
	heavy := mk(2 * sim.Microsecond)  // ~56 MB/s per node, far above capacity

	lh, hh := light.HorizonWindows(), heavy.HorizonWindows()
	if light.ReportWindows() != lh || heavy.ReportWindows() != hh {
		t.Fatal("horizon mode did not clip the reported span")
	}
	// Heavy load: backlog at the bell far exceeds light load's.
	if hb, lb := heavy.Series.InFlight(hh-1), light.Series.InFlight(lh-1); hb < 10*lb+10 {
		t.Errorf("backlog at horizon: heavy %d vs light %d — no open-loop queue growth", hb, lb)
	}
	// Heavy load: sojourn p99 in the last horizon window dwarfs the
	// first window's (the backlog keeps deepening across the horizon).
	first := heavy.Series.Window(0).Lat.Percentile(0.99)
	lastW := heavy.Series.Window(hh - 1)
	if lastW.Lat.Count() == 0 || lastW.Lat.Percentile(0.99) < 4*first {
		t.Errorf("heavy p99 first=%v last=%v — no blow-up across horizon",
			first, lastW.Lat.Percentile(0.99))
	}
	// Light load drains within its horizon span plus a tail window or
	// two; heavy load's timeline extends well past the bell.
	if heavy.Series.Len() <= hh {
		t.Error("heavy timeline did not extend past the horizon")
	}
}

// Payloads too small for the arrival stamp are rejected up front: a
// soak without sojourn readings has no timeline.
func TestSoakTinyPayloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for sub-stamp payload")
		}
	}()
	SoakDriveFM(ClosSpec(16), core.DefaultConfig(), cost.Default(),
		FixedRateSource{Base: AllToAll{Rounds: 1}, Gap: 10 * sim.Microsecond, Horizon: 50 * sim.Microsecond},
		4, SoakOptions{Width: 10 * sim.Microsecond})
}
