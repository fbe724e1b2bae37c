package workload

import (
	"reflect"
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
		UniformRandom{Seed: 42, Packets: 5, MinBytes: 8, MaxBytes: 64},
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
		{Neighbor{Rounds: 2, Wrap: true, Bytes: 16}, 0, 4,
			[]Send{{Dst: 3, Size: 16}, {Dst: 1, Size: 16}, {Dst: 3, Size: 16}, {Dst: 1, Size: 16}}},
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

func TestUniformRandomSizes(t *testing.T) {
	u := UniformRandom{Seed: 7, Packets: 100, MinBytes: 8, MaxBytes: 32}
	for _, s := range u.Gen(3, 16) {
		if s.Size < 8 || s.Size > 32 {
			t.Fatalf("size %d outside [8, 32]", s.Size)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("inverted size range did not panic")
		}
	}()
	(UniformRandom{Seed: 7, Packets: 1, MinBytes: 64, MaxBytes: 8}).Gen(0, 4)
}

// The per-rank receive counts the drivers wait on (genSeqs's expect)
// must account for every send the pattern makes.
func TestRecvCountsMatchTotal(t *testing.T) {
	for _, pat := range catalog() {
		n := AdjustNodes(pat, 8)
		_, _, _, counts, _ := genSeqs(pat, n, 64)
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
	_, _, _, expect, _ := genSeqs(pat, 8, 64)
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

// Per-send size overrides flow through the raw driver: total payload
// bytes is the sum of the drawn sizes, not messages*default.
func TestDriveRawPerSendSizes(t *testing.T) {
	p := cost.Default()
	pat := UniformRandom{Seed: 5, Packets: 8, MinBytes: 16, MaxBytes: 96}
	res := DriveRawSharded(CrossbarSpec(4), p, pat, 112, 1)
	var want int64
	for src := 0; src < 4; src++ {
		for _, s := range pat.Gen(src, 4) {
			want += int64(s.Size)
		}
	}
	if res.PayloadBytes != want {
		t.Errorf("payload bytes %d, want %d", res.PayloadBytes, want)
	}
	if res.PayloadBytes == int64(res.Messages*112) {
		t.Error("per-send sizes did not vary")
	}
}

// The At field delays injection: a pattern whose sends are all pinned
// past a horizon cannot finish before it.
func TestDriveRawHonorsAt(t *testing.T) {
	p := cost.Default()
	base := DriveRawSharded(CrossbarSpec(4), p, delayed{0}, 112, 1)
	shifted := DriveRawSharded(CrossbarSpec(4), p, delayed{base.Elapsed * 2}, 112, 1)
	if shifted.Elapsed < base.Elapsed*2 {
		t.Errorf("shifted run finished at %v, before the %v horizon", shifted.Elapsed, base.Elapsed*2)
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
