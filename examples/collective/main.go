// Collective: an 8-node parallel computation in the style FM was built
// to support (the paper's MPI motivation, Section 7).
//
// Every node integrates a slice of f(x) = 4/(1+x^2) over [0,1] — the
// classic parallel-pi kernel — then the group combines partial sums with
// one Allreduce, delimited by Barriers, through the MPI layer on FM
// (internal/mpi). The collectives run in O(log N) rounds of
// sub-128-byte messages: exactly the regime FM's n1/2 = 54 bytes targets.
//
// Run with: go run ./examples/collective
package main

import (
	"fmt"
	"math"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/mpi"
	"fm/internal/sim"
)

const (
	nodes    = 8
	handler  = 0
	steps    = 1 << 16 // integration resolution
	perNode  = steps / nodes
	stepSize = 1.0 / steps
)

func main() {
	c := cluster.NewFM(nodes, core.DefaultConfig(), cost.Default())

	pis := make([]float64, nodes)
	var elapsed sim.Time

	for rank := 0; rank < nodes; rank++ {
		rank := rank
		c.Start(rank, func(ep *core.Endpoint) {
			comm := mpi.NewWorld(ep, nodes, handler)

			// Local phase: integrate this node's slice, charging the
			// simulated CPU for the arithmetic (~50 ns per step on a
			// 1995 SuperSPARC).
			partial := 0.0
			for i := rank * perNode; i < (rank+1)*perNode; i++ {
				x := (float64(i) + 0.5) * stepSize
				partial += 4.0 / (1.0 + x*x)
			}
			ep.CPU().Advance(sim.Duration(perNode) * 50 * sim.Nanosecond)

			// Communication phase: one Allreduce produces pi everywhere.
			comm.Barrier()
			sum := comm.Allreduce([]float64{partial}, mpi.Sum)
			pis[rank] = sum[0] * stepSize

			comm.Barrier()
			if rank == 0 {
				elapsed = ep.Now()
			}
			// Let the layer quiesce (trailing acknowledgements).
			for ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("%d nodes, %d integration steps\n", nodes, steps)
	for rank, pi := range pis {
		fmt.Printf("  rank %d: pi = %.12f (err %.2e)\n", rank, pi, math.Abs(pi-math.Pi))
	}
	fmt.Printf("virtual time to solution: %v\n", elapsed)
	st := c.Fab.Stats()
	fmt.Printf("network traffic: %d packets, %d payload bytes (all collectives in short frames)\n",
		st.Packets, st.PayloadBytes)
}
