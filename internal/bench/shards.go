package bench

import (
	"fmt"

	"fm/internal/workload"
)

// ShardSupport reports the largest -shards value the experiment
// tolerates at the given options, plus the reason for the bound.
// fmbench validates -shards against this before anything runs, and the
// detail string is what its rejection message prints.
//
// The bound follows the topology partitioner's rule — one shard per
// leaf group of a strict two-level leaf/spine fabric — applied to every
// fabric the experiment builds. The scale experiment runs only such
// Clos fabrics, so it shards up to the leaf count of its smallest sweep
// point, and the faults experiment up to its one Clos's leaf count.
// Soak runs one kernel by design; every other experiment includes a
// crossbar (one leaf group), a line (leaf-to-leaf trunks), or the
// paper's two-node setups, none of which partition.
func ShardSupport(id string, opt Options) (int, string) {
	switch id {
	case "scale":
		nodes := opt.ScaleNodes
		if len(nodes) == 0 {
			nodes = DefaultOptions().ScaleNodes
		}
		bound, minN := 0, 0
		for _, n := range nodes {
			_, groups := workload.Geometry(n)
			if bound == 0 || groups < bound {
				bound, minN = groups, n
			}
		}
		return bound, fmt.Sprintf("2-level Clos sweep shards one leaf group per shard, and the smallest point (clos-%d) has %d leaf groups", minN, bound)
	case "faults":
		n := opt.FaultNodes
		if n == 0 {
			n = DefaultOptions().FaultNodes
		}
		_, groups := workload.Geometry(n)
		return groups, fmt.Sprintf("the faults experiment runs one 2-level Clos, and clos-%d has %d leaf groups", n, groups)
	case "soak":
		return 1, "the soak timeline is computed on the canonical single-kernel engine: a saturation study is contended by definition, and sharded contention resolves in a different order"
	case "fabrics", "patterns", "mpi":
		return 1, "compares crossbar and line fabrics; a crossbar is a single leaf group and a line links leaves directly, so neither partitions"
	default:
		return 1, "paper measurement on one crossbar switch — a single leaf group, so a single shard"
	}
}
