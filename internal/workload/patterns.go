package workload

// The pattern catalog. The first two are ports of the traffic the
// fabrics/scale experiments hand-rolled; the rest are the classical
// interconnect stress patterns the paper's successors (and every
// network-simulation suite since) measure. Every closed-form pattern
// states its traffic once, in RankLen and SendAt; its Gen expands them
// through genStream.

// genStream materializes rank src's send list from a closed form.
func genStream(p StreamingPattern, src, n int) []Send {
	m := p.RankLen(src, n)
	if m == 0 {
		return nil
	}
	out := make([]Send, m)
	for j := range out {
		out[j] = p.SendAt(src, n, j)
	}
	return out
}

// AllToAll sends Rounds packets from every rank to every other rank,
// destination order rotated per source so the pattern is not a
// synchronized hotspot sweep.
type AllToAll struct {
	Rounds int
}

// Name implements Pattern.
func (AllToAll) Name() string { return "all-to-all" }

// Gen implements Pattern.
func (a AllToAll) Gen(src, n int) []Send { return genStream(a, src, n) }

// RankLen implements StreamingPattern.
func (a AllToAll) RankLen(src, n int) int {
	if a.Rounds <= 0 || n <= 1 {
		return 0
	}
	return a.Rounds * (n - 1)
}

// SendAt implements StreamingPattern.
func (a AllToAll) SendAt(src, n, j int) Send {
	return Send{Dst: (src + j%(n-1) + 1) % n}
}

// Bisection pairs rank i with rank (i+n/2)%n: every packet crosses the
// fabric's midline, the worst case for topologies without full
// bisection bandwidth. The pairing needs an even rank count, so the
// pattern implements NodeAdjuster and rounds odd jobs up by one.
type Bisection struct {
	Packets int
}

// Name implements Pattern.
func (Bisection) Name() string { return "bisection" }

// AdjustNodes implements NodeAdjuster: bisection pairing needs an even
// node count.
func (Bisection) AdjustNodes(n int) int {
	if n%2 != 0 {
		n++
	}
	return n
}

// Gen implements Pattern.
func (b Bisection) Gen(src, n int) []Send { return genStream(b, src, n) }

// RankLen implements StreamingPattern.
func (b Bisection) RankLen(src, n int) int { return b.Packets }

// SendAt implements StreamingPattern.
func (b Bisection) SendAt(src, n, j int) Send { return Send{Dst: (src + n/2) % n} }

// UniformRandom sends Packets messages from every rank to destinations
// drawn uniformly from the other n-1 ranks. Each rank's stream is a
// splitmix64 sequence derived from (Seed, src), so the pattern is
// reproducible by construction: no global PRNG, no ordering hazards.
type UniformRandom struct {
	Seed    uint64
	Packets int
}

// Name implements Pattern.
func (UniformRandom) Name() string { return "uniform-random" }

// Gen implements Pattern.
func (u UniformRandom) Gen(src, n int) []Send {
	if n < 2 {
		return nil // no other rank to draw
	}
	rng := newSplitMix64(u.Seed, uint64(src))
	out := make([]Send, u.Packets)
	for i := range out {
		dst := int(rng.next() % uint64(n-1))
		if dst >= src {
			dst++ // skip self: map [0,n-2] onto the other n-1 ranks
		}
		out[i] = Send{Dst: dst}
	}
	return out
}

// Tornado is the classical adversarial permutation: every rank sends
// Packets messages to the rank almost half way around the ring,
// (src + ceil(n/2) - 1) mod n. On ring-like topologies the offset
// defeats shortest-path load balancing; on a full-bisection fabric it
// is just another permutation.
type Tornado struct {
	Packets int
}

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Gen implements Pattern.
func (t Tornado) Gen(src, n int) []Send { return genStream(t, src, n) }

// RankLen implements StreamingPattern.
func (t Tornado) RankLen(src, n int) int {
	if n < 2 {
		return 0 // no other rank to shift onto
	}
	return t.Packets
}

// SendAt implements StreamingPattern.
func (t Tornado) SendAt(src, n, j int) Send {
	shift := (n+1)/2 - 1
	if shift < 1 {
		shift = 1 // degenerate 2-rank job: the only other rank
	}
	return Send{Dst: (src + shift) % n}
}

// Incast is the k-to-1 convergence pattern (the Discussion's hotspot):
// every rank except Target sends Packets messages to Target. It is the
// stress case for receiver-side flow control — under FM's
// return-to-sender discipline the overflow lives at the senders.
type Incast struct {
	Target  int
	Packets int
}

// Name implements Pattern.
func (Incast) Name() string { return "incast" }

// Gen implements Pattern.
func (c Incast) Gen(src, n int) []Send { return genStream(c, src, n) }

// RankLen implements StreamingPattern.
func (c Incast) RankLen(src, n int) int {
	if src == c.Target%n {
		return 0
	}
	return c.Packets
}

// SendAt implements StreamingPattern.
func (c Incast) SendAt(src, n, j int) Send { return Send{Dst: c.Target % n} }

// Neighbor is the ring-shift/halo-exchange pattern: each round, every
// rank sends one message to its left neighbor and one to its right
// neighbor (in that order). With Wrap the ring closes; without it the
// boundary ranks skip their missing side — exactly the communication
// structure of a 1-D stencil halo exchange (examples/halo).
type Neighbor struct {
	Rounds int
	Wrap   bool
}

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// Gen implements Pattern.
func (g Neighbor) Gen(src, n int) []Send { return genStream(g, src, n) }

// ends resolves rank src's neighbors and whether each side exists
// (boundary ranks without wrap miss one; tiny rings degenerate).
func (g Neighbor) ends(src, n int) (left, right int, hasL, hasR bool) {
	left, right = src-1, src+1
	if g.Wrap {
		left, right = (src+n-1)%n, (src+1)%n
		if right == left {
			right = src // 2-rank ring: one distinct neighbor, one send
		}
	}
	return left, right, left >= 0 && left != src, right < n && right != src
}

// RankLen implements StreamingPattern.
func (g Neighbor) RankLen(src, n int) int {
	if g.Rounds <= 0 {
		return 0
	}
	_, _, hasL, hasR := g.ends(src, n)
	per := 0
	if hasL {
		per++
	}
	if hasR {
		per++
	}
	return g.Rounds * per
}

// SendAt implements StreamingPattern.
func (g Neighbor) SendAt(src, n, j int) Send {
	left, right, hasL, hasR := g.ends(src, n)
	per := 0
	if hasL {
		per++
	}
	if hasR {
		per++
	}
	if hasL && j%per == 0 {
		return Send{Dst: left}
	}
	return Send{Dst: right}
}

// Broadcast is the storm pattern: rank Root sends Rounds copies to
// every other rank, in ascending rank order per round — the 1-to-all
// inverse of incast, serialized at the root's single uplink.
type Broadcast struct {
	Root   int
	Rounds int
}

// Name implements Pattern.
func (Broadcast) Name() string { return "broadcast" }

// Gen implements Pattern.
func (b Broadcast) Gen(src, n int) []Send { return genStream(b, src, n) }

// RankLen implements StreamingPattern.
func (b Broadcast) RankLen(src, n int) int {
	if src != b.Root%n || b.Rounds <= 0 || n <= 1 {
		return 0
	}
	return b.Rounds * (n - 1)
}

// SendAt implements StreamingPattern.
func (b Broadcast) SendAt(src, n, j int) Send {
	dst := j % (n - 1)
	if dst >= src {
		dst++ // per round, destinations ascend skipping the root itself
	}
	return Send{Dst: dst}
}

// splitMix64 is the SplitMix64 PRNG (Steele, Lea, Flood 2014): one
// 64-bit state word, period 2^64, and statistically solid output from
// any seed — including sequential ones, which is why per-rank streams
// can be derived by simple seed arithmetic.
type splitMix64 struct {
	state uint64
}

// newSplitMix64 derives the stream for one rank: the golden-ratio
// increment separates adjacent ranks' streams.
func newSplitMix64(seed, stream uint64) *splitMix64 {
	return &splitMix64{state: seed + stream*0x9e3779b97f4a7c15}
}

func (r *splitMix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
