package mpi_test

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/mpi"
)

// Tagged point-to-point plus an Allreduce on a 4-node world: the
// receive for tag 2 is posted before the tag-1 message is consumed,
// and completes independently.
func Example() {
	const n = 4
	c := cluster.NewFM(n, core.DefaultConfig(), cost.Default())

	for rank := 0; rank < n; rank++ {
		rank := rank
		c.Start(rank, func(ep *core.Endpoint) {
			world := mpi.NewWorld(ep, n, 0)

			if rank == 1 {
				world.Send(0, 1, []byte("tagged"))
				world.Send(0, 2, []byte("matched"))
			}
			if rank == 0 {
				r2 := world.Irecv(mpi.AnySource, 2)
				data, st := world.Recv(1, 1)
				fmt.Printf("tag %d from rank %d: %s\n", st.Tag, st.Source, data)
				data, st = world.Wait(r2)
				fmt.Printf("tag %d from rank %d: %s\n", st.Tag, st.Source, data)
			}

			sum := world.Allreduce([]float64{float64(rank)}, mpi.Sum)
			if rank == 0 {
				fmt.Printf("allreduce sum of ranks: %.0f\n", sum[0])
			}
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	// Output:
	// tag 1 from rank 1: tagged
	// tag 2 from rank 1: matched
	// allreduce sum of ranks: 6
}

// Four nodes sum their ranks with one MPI Allreduce over FM.
func ExampleComm_Allreduce() {
	const nodes = 4
	c := cluster.NewFM(nodes, core.DefaultConfig(), cost.Default())

	results := make([]float64, nodes)
	for rank := 0; rank < nodes; rank++ {
		c.Start(rank, func(ep *core.Endpoint) {
			comm := mpi.NewWorld(ep, nodes, 0)
			sum := comm.Allreduce([]float64{float64(rank)}, mpi.Sum)
			results[rank] = sum[0]
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	fmt.Println(results)
	// Output:
	// [6 6 6 6]
}
