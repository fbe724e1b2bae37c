package workload

import (
	"reflect"
	"strings"
	"testing"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
)

// catalog returns one small instance of every pattern, for sweeping
// structural properties.
func catalog() []Pattern {
	return []Pattern{
		AllToAll{Rounds: 2},
		Bisection{Packets: 3},
		UniformRandom{Seed: 42, Packets: 5},
		Tornado{Packets: 3},
		Incast{Target: 0, Packets: 3},
		Neighbor{Rounds: 2, Wrap: true},
		Neighbor{Rounds: 2, Wrap: false},
		Broadcast{Root: 1, Rounds: 2},
	}
}

// Every pattern is a pure function of (value, src, n): repeated calls
// must return equal slices, destinations must be in range, and no rank
// may send to itself.
func TestPatternsPureAndValid(t *testing.T) {
	for _, pat := range catalog() {
		for _, n := range []int{1, 2, 4, 8, 13} {
			n := AdjustNodes(pat, n)
			for src := 0; src < n; src++ {
				a := pat.Gen(src, n)
				b := pat.Gen(src, n)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: Gen(%d, %d) not reproducible", pat.Name(), src, n)
				}
				for _, s := range a {
					if s.Dst < 0 || s.Dst >= n {
						t.Fatalf("%s: Gen(%d, %d) dst %d out of range", pat.Name(), src, n, s.Dst)
					}
					if s.Dst == src {
						t.Fatalf("%s: rank %d sends to itself at n=%d", pat.Name(), src, n)
					}
				}
			}
		}
	}
}

// TestClosedFormSends pins one small job's concrete send list for every
// closed-form pattern. Their Gen derives from RankLen and SendAt, so
// TestStreamingPatternsMatchGen cannot catch a wrong closed form; this
// table can.
func TestClosedFormSends(t *testing.T) {
	to := func(dsts ...int) []Send {
		out := make([]Send, len(dsts))
		for i, d := range dsts {
			out[i] = Send{Dst: d}
		}
		return out
	}
	for _, c := range []struct {
		pat    Pattern
		src, n int
		want   []Send
	}{
		{AllToAll{Rounds: 2}, 1, 4, to(2, 3, 0, 2, 3, 0)},
		{Bisection{Packets: 2}, 1, 6, to(4, 4)},
		{Tornado{Packets: 2}, 5, 8, to(0, 0)},
		{Tornado{Packets: 1}, 1, 2, to(0)}, // degenerate shift of one
		{Incast{Target: 6, Packets: 2}, 1, 4, to(2, 2)},
		{Neighbor{Rounds: 2, Wrap: true}, 0, 4, to(3, 1, 3, 1)},
		{Broadcast{Root: 5, Rounds: 2}, 1, 4, to(0, 2, 3, 0, 2, 3)},
	} {
		if got := c.pat.Gen(c.src, c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%T%+v.Gen(%d, %d) = %v, want %v", c.pat, c.pat, c.src, c.n, got, c.want)
		}
	}
}

// The PRNG seed is pinned: this exact destination sequence is part of
// the package's compatibility surface, because experiment outputs built
// on it are compared byte-for-byte across runs and machines.
func TestUniformRandomPinnedSeed(t *testing.T) {
	got := UniformRandom{Seed: 42, Packets: 6}.Gen(0, 8)
	dsts := make([]int, len(got))
	for i, s := range got {
		dsts[i] = s.Dst
	}
	want := []int{6, 6, 1, 3, 7, 5}
	if !reflect.DeepEqual(dsts, want) {
		t.Errorf("seed-42 stream changed: got %v want %v", dsts, want)
	}
	if other := (UniformRandom{Seed: 43, Packets: 6}).Gen(0, 8); reflect.DeepEqual(other, got) {
		t.Error("different seeds produced identical streams")
	}
}

// prepareSize is the payload size prepareOn hands the prologue.
const prepareSize = 64

// prepareOn runs the drive prologue for pat on a fresh n-node crossbar.
func prepareOn(pat Pattern, n int) (Result, []sendSeq, []int) {
	spec := CrossbarSpec(n)
	return prepare(spec, pat, prepareSize, spec.Build(sim.NewKernel(), cost.Default()))
}

// The per-rank receive counts the drivers wait on (prepare's expect)
// must account for every send the pattern makes.
func TestRecvCountsMatchTotal(t *testing.T) {
	for _, pat := range catalog() {
		n := AdjustNodes(pat, 8)
		_, _, counts := prepareOn(pat, n)
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if total := Total(pat, n); sum != total {
			t.Errorf("%s: recv counts sum %d != total sends %d", pat.Name(), sum, total)
		}
	}
}

func TestBisectionAdjustNodes(t *testing.T) {
	if got := AdjustNodes(Bisection{}, 7); got != 8 {
		t.Errorf("odd count adjusted to %d, want 8", got)
	}
	if got := AdjustNodes(Bisection{}, 8); got != 8 {
		t.Errorf("even count adjusted to %d, want 8", got)
	}
	// Patterns without an adjustment pass n through.
	if got := AdjustNodes(AllToAll{Rounds: 1}, 7); got != 7 {
		t.Errorf("AllToAll adjusted 7 to %d", got)
	}
}

func TestNeighborBoundaries(t *testing.T) {
	open := Neighbor{Rounds: 1}
	if sends := open.Gen(0, 4); len(sends) != 1 || sends[0].Dst != 1 {
		t.Errorf("open rank 0 sends %v, want right neighbor only", sends)
	}
	if sends := open.Gen(3, 4); len(sends) != 1 || sends[0].Dst != 2 {
		t.Errorf("open rank 3 sends %v, want left neighbor only", sends)
	}
	wrapped := Neighbor{Rounds: 1, Wrap: true}
	if sends := wrapped.Gen(0, 4); len(sends) != 2 || sends[0].Dst != 3 || sends[1].Dst != 1 {
		t.Errorf("wrapped rank 0 sends %v, want [3 1]", sends)
	}
	// A 2-rank ring has one distinct neighbor; it must not be sent twice
	// per round under Wrap.
	if sends := wrapped.Gen(0, 2); len(sends) != 1 || sends[0].Dst != 1 {
		t.Errorf("2-rank wrapped ring sends %v, want one send to rank 1", sends)
	}
}

func TestIncastTargetSilent(t *testing.T) {
	pat := Incast{Target: 2, Packets: 4}
	if sends := pat.Gen(2, 8); len(sends) != 0 {
		t.Errorf("incast target generated %d sends", len(sends))
	}
	_, _, expect := prepareOn(pat, 8)
	if expect[2] != 7*4 {
		t.Errorf("target receives %d, want 28", expect[2])
	}
}

func TestBroadcastOnlyRootSends(t *testing.T) {
	pat := Broadcast{Root: 1, Rounds: 2}
	for src := 0; src < 4; src++ {
		sends := pat.Gen(src, 4)
		if src == 1 && len(sends) != 6 {
			t.Errorf("root generated %d sends, want 6", len(sends))
		}
		if src != 1 && len(sends) != 0 {
			t.Errorf("non-root %d generated %d sends", src, len(sends))
		}
	}
}

// The three drivers must agree on the structural totals and be
// deterministic run to run: same elapsed time, same latency
// distribution, to the bit.
func TestDriversDeterministicAndConsistent(t *testing.T) {
	p := cost.Default()
	pat := UniformRandom{Seed: 9, Packets: 4}
	spec := ClosSpec(8)
	const size = 112

	type summary struct {
		messages int
		bytes    int64
		elapsed  int64
		latN     uint64
		latMean  int64
		p99      int64
	}
	sum := func(r Result) summary {
		return summary{r.Messages, r.PayloadBytes, int64(r.Elapsed),
			r.Latency.Count(), int64(r.Latency.Mean()), int64(r.Latency.Percentile(0.99))}
	}

	drivers := []struct {
		name string
		run  func() Result
	}{
		{"raw", func() Result { return DriveRawSharded(spec, p, pat, size, 1) }},
		{"fm", func() Result { return DriveFM(spec, core.DefaultConfig(), p, pat, size) }},
		{"mpi", func() Result { return DriveMPI(spec, core.DefaultConfig().WithFrame(size), p, pat, size) }},
	}
	elapsed := make(map[string]int64)
	for _, d := range drivers {
		a, b := sum(d.run()), sum(d.run())
		if a != b {
			t.Errorf("%s driver not deterministic: %+v vs %+v", d.name, a, b)
		}
		if want := Total(pat, 8); a.messages != want {
			t.Errorf("%s driver counted %d messages, want %d", d.name, a.messages, want)
		}
		if a.bytes != int64(a.messages*size) {
			t.Errorf("%s driver counted %d payload bytes", d.name, a.bytes)
		}
		if a.latN != uint64(a.messages) {
			t.Errorf("%s driver recorded %d latencies for %d messages", d.name, a.latN, a.messages)
		}
		if a.elapsed <= 0 {
			t.Errorf("%s driver elapsed %d", d.name, a.elapsed)
		}
		elapsed[d.name] = a.elapsed
	}
	// Stack depth costs time: the raw fabric finishes first, MPI last.
	if !(elapsed["raw"] < elapsed["fm"] && elapsed["fm"] < elapsed["mpi"]) {
		t.Errorf("stack levels out of order: %v", elapsed)
	}
}

// Every message carries the driver's one payload size: the prologue
// refuses a send that sets Size, naming the pattern, rather than
// silently resizing it.
func TestPrepareRejectsSendSize(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "pattern sized") {
			t.Errorf("panic %q does not name the pattern", msg)
		}
	}()
	prepareOn(sized{}, 4)
}

// sized sends one 16-byte message to the next rank.
type sized struct{}

func (sized) Name() string { return "sized" }

func (sized) Gen(src, n int) []Send { return []Send{{Dst: (src + 1) % n, Size: 16}} }

// The At field delays a send at every stack level: a send pinned at At
// is not issued before At, and its latency is measured from At. Every
// rank sends one message; the shifted run pins each past the end of
// the unshifted run, so the FM and MPI ranks hold before sending.
func TestDriveRawHonorsAt(t *testing.T) {
	p := cost.Default()
	cfg := core.DefaultConfig()
	spec := CrossbarSpec(4)
	for _, d := range []struct {
		name string
		// run returns the drive's result and an instant no delivery
		// passes: the last delivery itself where exact, else quiescence.
		run   func(at sim.Duration) (Result, sim.Duration)
		exact bool
	}{
		{"raw", func(at sim.Duration) (Result, sim.Duration) {
			r := DriveRawSharded(spec, p, delayed{at}, 112, 1)
			return r, r.Elapsed
		}, true},
		{"fm", func(at sim.Duration) (Result, sim.Duration) {
			r := DriveFMFaultsSharded(spec, cfg, p, delayed{at}, 112, nil, 1)
			return r.Result, r.LastDelivery
		}, true},
		{"mpi", func(at sim.Duration) (Result, sim.Duration) {
			r := DriveMPI(spec, cfg, p, delayed{at}, 112)
			return r, r.Elapsed
		}, false},
	} {
		base, _ := d.run(0)
		at := base.Elapsed * 2
		shifted, last := d.run(at)
		lat := &shifted.Latency
		if shifted.Elapsed < at || lat.Count() != uint64(shifted.Messages) {
			t.Errorf("%s: finished at %v with %d/%d latencies, pinned at %v",
				d.name, shifted.Elapsed, lat.Count(), shifted.Messages, at)
			continue
		}
		// A send issued before At would read, from At, less than the
		// fastest delivery of the unshifted run.
		if lat.Min() < base.Latency.Min() {
			t.Errorf("%s: latency from At %v is below the unshifted minimum %v: a send left before At",
				d.name, lat.Min(), base.Latency.Min())
		}
		// Measured from At: the slowest latency spans At to the last
		// delivery, not from any later instant.
		if got := lat.Max(); got > last-at || d.exact && got != last-at {
			t.Errorf("%s: max latency %v, last delivery %v after At", d.name, got, last-at)
		}
	}
}

// delayed sends one packet to the next rank, no earlier than a fixed
// instant.
type delayed struct {
	at sim.Duration
}

func (delayed) Name() string { return "delayed" }

func (d delayed) Gen(src, n int) []Send {
	return []Send{{Dst: (src + 1) % n, At: d.at}}
}
