package workload

import (
	"fmt"
	"testing"
)

// Every StreamingPattern must agree exactly with its own Gen: the
// drivers pick whichever form the pattern offers, so any divergence
// would silently change traffic. This pins RankLen == len(Gen) and
// SendAt(j) == Gen[j] across the whole closed-form catalog, job sizes
// including the degenerate ones, and every rank.
func TestStreamingPatternsMatchGen(t *testing.T) {
	pats := []Pattern{
		AllToAll{Rounds: 1},
		AllToAll{Rounds: 3},
		Bisection{Packets: 5},
		Tornado{Packets: 4},
		Incast{Target: 0, Packets: 3},
		Incast{Target: 5, Packets: 2},
		Neighbor{Rounds: 2, Wrap: true},
		Neighbor{Rounds: 3, Wrap: false},
		Broadcast{Root: 0, Rounds: 2},
		Broadcast{Root: 3, Rounds: 1},
	}
	for _, pat := range pats {
		sp, ok := pat.(StreamingPattern)
		if !ok {
			t.Fatalf("%T does not implement StreamingPattern", pat)
		}
		for _, n := range []int{1, 2, 3, 4, 5, 8, 16, 17} {
			for src := 0; src < n; src++ {
				label := fmt.Sprintf("%T n=%d src=%d", pat, n, src)
				want := pat.Gen(src, n)
				if got := sp.RankLen(src, n); got != len(want) {
					t.Fatalf("%s: RankLen = %d, len(Gen) = %d", label, got, len(want))
				}
				for j := range want {
					if got := sp.SendAt(src, n, j); got != want[j] {
						t.Fatalf("%s: SendAt(%d) = %+v, Gen[%d] = %+v", label, j, got, j, want[j])
					}
				}
			}
		}
	}
}

// UniformRandom and the soak sources are sequentially seeded and must
// stay on the materialized path; prepare would otherwise misdrive them.
func TestSequentialPatternsStayMaterialized(t *testing.T) {
	if _, ok := Pattern(UniformRandom{Seed: 1, Packets: 1}).(StreamingPattern); ok {
		t.Fatal("UniformRandom must not implement StreamingPattern: its j-th send depends on a PRNG prefix")
	}
}

// prepare must produce identical totals whichever form the pattern
// takes: drive every catalog pattern (streaming and materialized)
// through it and compare against a walk of Gen. The per-rank expect
// counts are what the drivers wait on, so they must match Gen's
// destinations exactly.
func TestPrepareStreamingTotalsMatchMaterialized(t *testing.T) {
	for _, pat := range catalog() {
		n := AdjustNodes(pat, 7)
		res, seqs, expect := prepareOn(pat, n)

		wantMessages := 0
		wantExpect := make([]int, n)
		for src := 0; src < n; src++ {
			list := pat.Gen(src, n)
			if seqs[src].Len() != len(list) {
				t.Fatalf("%s rank %d: seq len %d, Gen len %d", pat.Name(), src, seqs[src].Len(), len(list))
			}
			for j, s := range list {
				if seqs[src].At(j) != s {
					t.Fatalf("%s rank %d send %d: seq %+v, Gen %+v", pat.Name(), src, j, seqs[src].At(j), s)
				}
				wantMessages++
				wantExpect[s.Dst]++
			}
		}
		if res.Messages != wantMessages || res.PayloadBytes != int64(wantMessages*prepareSize) {
			t.Fatalf("%s: totals (%d, %d) != (%d, %d)", pat.Name(), res.Messages, res.PayloadBytes,
				wantMessages, wantMessages*prepareSize)
		}
		for i := range expect {
			if expect[i] != wantExpect[i] {
				t.Fatalf("%s: expect[%d] = %d, want %d", pat.Name(), i, expect[i], wantExpect[i])
			}
		}
	}
}
