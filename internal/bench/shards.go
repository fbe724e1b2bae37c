package bench

import "fmt"

// The -shards bound follows the topology partitioner's rule — one shard
// per leaf group of a strict two-level leaf/spine fabric — applied to
// every fabric an experiment builds. The scale experiment runs only
// such Clos fabrics, so it shards up to the leaf count of its smallest
// sweep point, and the faults experiment up to its one Clos's leaf
// count. Soak runs one kernel by design; every other experiment
// includes a crossbar (one leaf group), a line (leaf-to-leaf trunks),
// or the paper's two-node setups, none of which partition. Each
// experiment's Check enforces its bound with checkShards, and
// Experiment.Validate rejects -shards > 1 for one without a Check.

// checkShards rejects opt.Shards above the experiment's bound, giving
// the reason for the bound.
func checkShards(opt Options, id string, bound int, reason string) error {
	if opt.Shards > bound {
		return fmt.Errorf("-shards %d: experiment %q supports -shards 1..%d: %s", opt.Shards, id, bound, reason)
	}
	return nil
}
