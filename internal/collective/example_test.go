package collective_test

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/mpi"
)

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
