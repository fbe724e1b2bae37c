package mpi_test

import (
	"bytes"
	"slices"
	"testing"

	"fm/internal/core"
	"fm/internal/mpi"
	"fm/internal/sim"
)

// The collectives case by case: barrier synchronisation, broadcast,
// reduce, allreduce, and collectives back to back.

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		entered := make([]sim.Time, n)
		exited := make([]sim.Time, n)
		runEP(t, n, func(rank int, ep *core.Endpoint, c *mpi.Comm) {
			// Skew the entries so the barrier has real work to do.
			ep.CPU().Advance(sim.Duration(rank) * 40 * sim.Microsecond)
			entered[rank] = ep.Now()
			c.Barrier()
			exited[rank] = ep.Now()
		})
		var lastEnter sim.Time
		for _, e := range entered {
			if e > lastEnter {
				lastEnter = e
			}
		}
		for r, x := range exited {
			if x < lastEnter {
				t.Errorf("n=%d: rank %d left the barrier at %v before the last entry %v",
					n, r, x, lastEnter)
			}
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	const n = 4
	done := make([]int, n)
	run(t, n, func(rank int, c *mpi.Comm) {
		for i := 0; i < 10; i++ {
			c.Barrier()
			done[rank]++
		}
	})
	for r, d := range done {
		if d != 10 {
			t.Errorf("rank %d completed %d of 10 barriers", r, d)
		}
	}
}

func TestBroadcastSmall(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		msg := []byte("broadcast payload")
		got := make([][]byte, n)
		run(t, n, func(rank int, c *mpi.Comm) {
			var data []byte
			if rank == 2%n {
				data = msg
			}
			got[rank] = c.Bcast(2%n, data)
		})
		for r := 0; r < n; r++ {
			if !bytes.Equal(got[r], msg) {
				t.Errorf("n=%d rank %d got %q", n, r, got[r])
			}
		}
	}
}

func TestBroadcastMultiFrame(t *testing.T) {
	msg := bytes.Repeat([]byte{7, 13, 42}, 500) // 1500 B > one frame
	got := make([][]byte, 4)
	run(t, 4, func(rank int, c *mpi.Comm) {
		var data []byte
		if rank == 0 {
			data = msg
		}
		got[rank] = c.Bcast(0, data)
	})
	for r := range got {
		if !bytes.Equal(got[r], msg) {
			t.Errorf("rank %d: %d bytes, want %d", r, len(got[r]), len(msg))
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{2, 4, 7, 8} {
		var result []float64
		run(t, n, func(rank int, c *mpi.Comm) {
			vals := []float64{float64(rank + 1), 2}
			if r := c.Reduce(0, vals, mpi.Sum); rank == 0 {
				result = r
			} else if r != nil {
				t.Errorf("non-root rank %d got a result", rank)
			}
		})
		want := float64(n*(n+1)) / 2
		if len(result) != 2 || result[0] != want || result[1] != float64(2*n) {
			t.Errorf("n=%d: reduce = %v, want [%v %v]", n, result, want, 2*n)
		}
	}
}

// Max, Min and Prod run back to back in one world; only the root gets
// a result from any of them.
func TestReduceMaxMinProd(t *testing.T) {
	const n = 6
	var maxV, minV, prodV []float64
	run(t, n, func(rank int, c *mpi.Comm) {
		reduce := func(v []float64, op mpi.Op) []float64 {
			r := c.Reduce(0, v, op)
			if rank != 0 && r != nil {
				t.Errorf("non-root rank %d got a result", rank)
			}
			return r
		}
		v := []float64{float64(rank) - 2}
		w := []float64{float64(rank + 1)}
		maxR, minR, prodR := reduce(v, mpi.Max), reduce(v, mpi.Min), reduce(w, mpi.Prod)
		if rank == 0 {
			maxV, minV, prodV = maxR, minR, prodR
		}
	})
	if !slices.Equal(maxV, []float64{3}) || !slices.Equal(minV, []float64{-2}) ||
		!slices.Equal(prodV, []float64{720}) {
		t.Errorf("max=%v min=%v prod=%v", maxV, minV, prodV)
	}
}

func TestAllreduce(t *testing.T) {
	const n = 8
	results := make([][]float64, n)
	run(t, n, func(rank int, c *mpi.Comm) {
		results[rank] = c.Allreduce([]float64{1, float64(rank)}, mpi.Sum)
	})
	for r, got := range results {
		if len(got) != 2 || got[0] != n || got[1] != float64(n*(n-1))/2 {
			t.Errorf("rank %d allreduce = %v", r, got)
		}
	}
}

// A 100-element vector is 800 B of floats, so the reduce and the
// broadcast both span several frames. Every input is a small integer,
// so the sums are exact in any order and are compared exactly.
func TestAllreduceLargeVector(t *testing.T) {
	const n = 4
	const dim = 100
	results := make([][]float64, n)
	run(t, n, func(rank int, c *mpi.Comm) {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(rank*dim + i)
		}
		results[rank] = c.Allreduce(v, mpi.Sum)
	})
	want := make([]float64, dim)
	for i := range want {
		for r := 0; r < n; r++ {
			want[i] += float64(r*dim + i)
		}
	}
	for r, got := range results {
		if !slices.Equal(got, want) {
			t.Fatalf("rank %d: allreduce = %v, want %v", r, got, want)
		}
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Fresh internal tags must keep back-to-back heterogeneous
	// collectives separate: the Bcast's payload depends on the Allreduce.
	const n = 4
	sums := make([]float64, n)
	bcasts := make([][]byte, n)
	run(t, n, func(rank int, c *mpi.Comm) {
		c.Barrier()
		r := c.Allreduce([]float64{1}, mpi.Sum)
		c.Barrier()
		sums[rank] = r[0]
		bcasts[rank] = c.Bcast(3, []byte{byte(int(r[0]))})
	})
	for r := 0; r < n; r++ {
		if sums[r] != n || !bytes.Equal(bcasts[r], []byte{n}) {
			t.Errorf("rank %d: sum %v, bcast %v", r, sums[r], bcasts[r])
		}
	}
}
