package workload

import (
	"fmt"
	"math"

	"fm/internal/sim"
)

// A Source is an open-loop arrival process wrapped around a Pattern: it
// is itself a Pattern, whose Gen returns the base pattern's sends with
// Send.At set to scheduled arrival instants drawn from the process over
// a fixed virtual horizon. "Open loop" means the schedule is a property
// of the source alone — arrivals keep coming at their instants whether
// or not the system has kept up, so when offered load exceeds service
// capacity the backlog (and with it the sojourn latency the soak driver
// measures) grows without bound. That is the regime batch drivers
// cannot reach: a batch run always ends, so the knee never shows.
//
// Contract: every generated Send.At lies in [0, SourceHorizon()); the
// destinations cycle through the base pattern's send list in order;
// generation is a pure function of the source value and (src, n),
// exactly like any other Pattern.
type Source interface {
	Pattern
	// SourceHorizon is the virtual-time span arrivals cover.
	SourceHorizon() sim.Duration
}

// cycleSends materializes an arrival schedule over base's send list:
// arrival i takes base[i%len(base)]'s destination with its own At
// instant. next() returns successive interarrival gaps.
func cycleSends(base []Send, horizon sim.Duration, next func() sim.Duration) []Send {
	if len(base) == 0 {
		return nil
	}
	var out []Send
	t := sim.Duration(0)
	for i := 0; ; i++ {
		t += next()
		if t >= horizon {
			return out
		}
		out = append(out, Send{Dst: base[i%len(base)].Dst, At: t})
	}
}

// checkSource panics on a non-runnable process configuration; sources
// are built from validated fmbench flags, so reaching this is a
// programming error.
func checkSource(name string, gap, horizon sim.Duration) {
	if gap <= 0 {
		panic(fmt.Sprintf("workload: %s: interarrival gap %v must be positive", name, gap))
	}
	if horizon <= 0 {
		panic(fmt.Sprintf("workload: %s: horizon %v must be positive", name, horizon))
	}
}

// PoissonSource schedules arrivals as a per-rank Poisson process:
// interarrival gaps are exponentially distributed with mean MeanGap,
// drawn from a splitmix64 stream derived from (Seed, rank) — the same
// per-rank stream discipline the randomized patterns use, so a run is
// reproducible by construction and ranks are mutually independent.
type PoissonSource struct {
	Base    Pattern
	Seed    uint64
	MeanGap sim.Duration // mean interarrival per rank
	Horizon sim.Duration
}

func (s PoissonSource) Name() string { return "poisson:" + s.Base.Name() }

// SourceHorizon implements Source.
func (s PoissonSource) SourceHorizon() sim.Duration { return s.Horizon }

// Gen implements Pattern.
func (s PoissonSource) Gen(src, n int) []Send {
	checkSource(s.Name(), s.MeanGap, s.Horizon)
	rng := newSplitMix64(s.Seed, uint64(src))
	mean := float64(s.MeanGap)
	return cycleSends(s.Base.Gen(src, n), s.Horizon, func() sim.Duration {
		// 53-bit uniform in (0, 1]: +1 keeps the log argument nonzero,
		// and u == 1 maps to a zero gap (a legal batched arrival).
		u := float64(rng.next()>>11+1) / float64(1<<53)
		return sim.Duration(-mean * math.Log(u))
	})
}

// FixedRateSource schedules arrivals on a strict clock: one arrival
// every Gap, with rank src's clock offset by Gap*src/n so the ranks'
// injections interleave instead of synchronizing on every tick (the
// unstaggered variant measures barrier-like burst behavior, which is
// the incast pattern's job, not the soak source's).
type FixedRateSource struct {
	Base    Pattern
	Gap     sim.Duration // interarrival per rank
	Horizon sim.Duration
}

func (s FixedRateSource) Name() string { return "fixed-rate:" + s.Base.Name() }

// SourceHorizon implements Source.
func (s FixedRateSource) SourceHorizon() sim.Duration { return s.Horizon }

// Gen implements Pattern.
func (s FixedRateSource) Gen(src, n int) []Send {
	checkSource(s.Name(), s.Gap, s.Horizon)
	phase := sim.Duration(int64(s.Gap) * int64(src) / int64(n))
	first := true
	return cycleSends(s.Base.Gen(src, n), s.Horizon, func() sim.Duration {
		if first {
			first = false
			return phase
		}
		return s.Gap
	})
}
