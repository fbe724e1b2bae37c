// Package collective_test checks the collectives of the MPI layer
// (package mpi) case by case: barrier synchronisation, broadcast,
// reduce, allreduce, all-to-all, and collectives back to back. The
// directory holds tests only; the collectives live in internal/mpi.
package collective_test

import (
	"bytes"
	"math"
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/mpi"
	"fm/internal/sim"
)

const h = 3

// group runs body on every node of an n-node cluster, each with a world
// communicator on handler h, and runs the simulation to quiescence.
func group(t *testing.T, n int, body func(c *mpi.Comm)) {
	t.Helper()
	cl := cluster.NewFM(n, core.DefaultConfig(), cost.Default())
	for i := 0; i < n; i++ {
		cl.Start(i, func(ep *core.Endpoint) {
			body(mpi.NewWorld(ep, n, h))
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		entered := make([]sim.Time, n)
		exited := make([]sim.Time, n)
		group(t, n, func(c *mpi.Comm) {
			ep := c.Endpoint()
			// Skew the entries so the barrier has real work to do.
			ep.CPU().Advance(sim.Duration(c.Rank()) * 40 * sim.Microsecond)
			entered[c.Rank()] = ep.Now()
			c.Barrier()
			exited[c.Rank()] = ep.Now()
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
	group(t, n, func(c *mpi.Comm) {
		for i := 0; i < 10; i++ {
			c.Barrier()
			done[c.Rank()]++
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
		group(t, n, func(c *mpi.Comm) {
			var data []byte
			if c.Rank() == 2%n {
				data = msg
			}
			got[c.Rank()] = c.Bcast(2%n, data)
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
	group(t, 4, func(c *mpi.Comm) {
		var data []byte
		if c.Rank() == 0 {
			data = msg
		}
		got[c.Rank()] = c.Bcast(0, data)
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
		group(t, n, func(c *mpi.Comm) {
			vals := []float64{float64(c.Rank() + 1), 2}
			if r := c.Reduce(0, vals, mpi.Sum); c.Rank() == 0 {
				result = r
			} else if r != nil {
				t.Errorf("non-root rank %d got a result", c.Rank())
			}
		})
		want := float64(n*(n+1)) / 2
		if result[0] != want || result[1] != float64(2*n) {
			t.Errorf("n=%d: reduce = %v, want [%v %v]", n, result, want, 2*n)
		}
	}
}

func TestReduceMaxMinProd(t *testing.T) {
	const n = 6
	var maxV, minV, prodV float64
	group(t, n, func(c *mpi.Comm) {
		v := []float64{float64(c.Rank()) - 2}
		if r := c.Reduce(0, v, mpi.Max); c.Rank() == 0 {
			maxV = r[0]
		}
		if r := c.Reduce(0, v, mpi.Min); c.Rank() == 0 {
			minV = r[0]
		}
		w := []float64{float64(c.Rank() + 1)}
		if r := c.Reduce(0, w, mpi.Prod); c.Rank() == 0 {
			prodV = r[0]
		}
	})
	if maxV != 3 || minV != -2 || prodV != 720 {
		t.Errorf("max=%v min=%v prod=%v", maxV, minV, prodV)
	}
}

func TestAllreduce(t *testing.T) {
	const n = 8
	results := make([][]float64, n)
	group(t, n, func(c *mpi.Comm) {
		results[c.Rank()] = c.Allreduce([]float64{1, float64(c.Rank())}, mpi.Sum)
	})
	for r, got := range results {
		if got[0] != n || got[1] != float64(n*(n-1))/2 {
			t.Errorf("rank %d allreduce = %v", r, got)
		}
	}
}

func TestAllreduceLargeVector(t *testing.T) {
	const n = 4
	const dim = 100 // 800 B of floats: multi-frame reduce + broadcast
	results := make([][]float64, n)
	group(t, n, func(c *mpi.Comm) {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(c.Rank()*dim + i)
		}
		results[c.Rank()] = c.Allreduce(v, mpi.Sum)
	})
	for i := 0; i < dim; i++ {
		want := 0.0
		for r := 0; r < n; r++ {
			want += float64(r*dim + i)
		}
		for r := 0; r < n; r++ {
			if math.Abs(results[r][i]-want) > 1e-9 {
				t.Fatalf("rank %d element %d = %v, want %v", r, i, results[r][i], want)
			}
		}
	}
}

func TestAllToAll(t *testing.T) {
	const n = 4
	results := make([][][]byte, n)
	group(t, n, func(c *mpi.Comm) {
		data := make([][]byte, n)
		for j := 0; j < n; j++ {
			data[j] = []byte{byte(c.Rank()), byte(j)}
		}
		results[c.Rank()] = c.Alltoall(data)
	})
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want := []byte{byte(i), byte(j)}
			if !bytes.Equal(results[j][i], want) {
				t.Errorf("result[%d][%d] = %v, want %v", j, i, results[j][i], want)
			}
		}
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Fresh internal tags must keep back-to-back heterogeneous
	// collectives separate: the Bcast's payload depends on the Allreduce.
	const n = 4
	sums := make([]float64, n)
	bcasts := make([][]byte, n)
	group(t, n, func(c *mpi.Comm) {
		c.Barrier()
		r := c.Allreduce([]float64{1}, mpi.Sum)
		c.Barrier()
		sums[c.Rank()] = r[0]
		bcasts[c.Rank()] = c.Bcast(3, []byte{byte(int(r[0]))})
	})
	for r := 0; r < n; r++ {
		if sums[r] != n || !bytes.Equal(bcasts[r], []byte{n}) {
			t.Errorf("rank %d: sum %v, bcast %v", r, sums[r], bcasts[r])
		}
	}
}
