// Package workload is the repository's traffic-pattern subsystem: a
// small vocabulary of deterministic per-rank traffic generators
// (Pattern) and drivers that run any pattern at three stack depths —
// the raw Myrinet fabric, the full FM 1.0 layer, and MPI-on-FM — with
// shared latency/bandwidth/hop collection through internal/stats.
//
// The paper's evaluation is built entirely from traffic patterns:
// ping-pong and streaming carry the figures, and the Discussion's
// flow-control study is a many-to-one hotspot. This package makes those
// patterns (and the classical ones the paper's successors measured:
// uniform random, tornado, incast, neighbor exchange, broadcast storms)
// first-class values, so an experiment is "pattern x fabric x stack
// level" instead of a hand-rolled closure per study.
//
// Determinism rules:
//
//   - Gen(src, n) is a pure function of the pattern value, src, and n.
//     Randomized patterns carry an explicit seed and derive per-rank
//     streams from it (splitmix64), so a run is reproducible by
//     construction — there is no global PRNG state.
//   - Drivers run one simulation per call on a private sim.Kernel;
//     concurrent driver calls share nothing, which is what lets the
//     bench harness fan sweep points out over a worker pool with
//     byte-identical output at any worker count.
package workload

import "fm/internal/sim"

// Send is one message a rank will issue: the destination rank, an
// optional payload-size override, and the earliest virtual instant the
// injection may start.
type Send struct {
	// Dst is the destination rank (node id).
	Dst int
	// Size overrides the driver's default payload size when positive.
	Size int
	// At is the earliest injection instant. Zero means back-to-back:
	// the send starts as soon as the source's previous send has left.
	At sim.Duration
}

// Pattern deterministically generates per-rank traffic for an n-rank
// job. Implementations must be pure: repeated Gen calls with the same
// arguments return equal slices (callers may mutate the returned slice,
// so Gen returns a fresh one each call).
type Pattern interface {
	// Name is the pattern's stable identifier, used in experiment
	// output and test pinning.
	Name() string
	// Gen returns rank src's sends, in issue order, for an n-rank job.
	Gen(src, n int) []Send
}

// StreamingPattern is an optional Pattern refinement for patterns whose
// send lists are closed forms: rank src's j-th send is computable
// directly, so drivers can stream each rank's traffic on demand instead
// of materializing every rank's full list up front. At 16k-node
// all-to-all the materialized lists alone are hundreds of millions of
// Send values — streaming is what keeps the prologue's footprint flat.
//
// Implementations must agree exactly with Gen: RankLen(src, n) ==
// len(Gen(src, n)) and SendAt(src, n, j) == Gen(src, n)[j] for every
// valid j (streaming_test.go pins this for the whole catalog).
// Sequentially-seeded patterns (UniformRandom, the soak Sources) stay
// materialized: their j-th value depends on a PRNG prefix.
type StreamingPattern interface {
	Pattern
	// RankLen returns the number of sends rank src issues, without
	// materializing them.
	RankLen(src, n int) int
	// SendAt returns rank src's j-th send, 0 <= j < RankLen(src, n).
	SendAt(src, n, j int) Send
}

// NodeAdjuster is an optional Pattern refinement for patterns that
// cannot serve every job size. AdjustNodes rounds n up to the nearest
// size the pattern supports (for example, bisection pairing needs an
// even rank count).
type NodeAdjuster interface {
	AdjustNodes(n int) int
}

// AdjustNodes returns the node count the pattern wants for a requested
// n: the pattern's own adjustment when it implements NodeAdjuster, n
// unchanged otherwise.
func AdjustNodes(p Pattern, n int) int {
	if a, ok := p.(NodeAdjuster); ok {
		return a.AdjustNodes(n)
	}
	return n
}

// Total returns the total number of sends the pattern generates across
// all n ranks.
func Total(p Pattern, n int) int {
	total := 0
	for src := 0; src < n; src++ {
		total += len(p.Gen(src, n))
	}
	return total
}
