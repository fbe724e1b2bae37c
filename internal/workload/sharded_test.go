package workload

import (
	"slices"
	"testing"

	"fm/internal/core"
	"fm/internal/cost"
)

// TestOneShardRegression pins the one-shard outcome of the raw and the
// closed-loop FM drive by value, so the engine every default run uses
// (a one-shard group over an unpartitioned fabric) cannot drift from
// the published single-kernel numbers: completion time in ps, the
// latency distribution's count, mean and max, and the mean hop count.
func TestOneShardRegression(t *testing.T) {
	p := cost.Default()
	for _, tc := range []struct {
		name               string
		res                Result
		messages           int
		elapsed, mean, max int64 // ps
		hops               float64
	}{
		{"raw clos-32 uniform-random",
			DriveRawSharded(ClosSpec(32), p, UniformRandom{Seed: 7, Packets: 8}, 112, 1),
			256, 41650000, 8988671, 30450000, 2.9375},
		{"fm clos-16 all-to-all",
			DriveFMFaultsSharded(ClosSpec(16), core.DefaultConfig(), p, AllToAll{Rounds: 1}, 112, nil, 1).Result,
			240, 290742000, 71341133, 112640000, 2.6},
	} {
		r := tc.res
		if r.Messages != tc.messages || r.Latency.Count() != uint64(tc.messages) {
			t.Errorf("%s: %d messages, %d latencies, pinned %d", tc.name, r.Messages, r.Latency.Count(), tc.messages)
		}
		if int64(r.Elapsed) != tc.elapsed {
			t.Errorf("%s: elapsed = %d ps, pinned %d ps", tc.name, r.Elapsed, tc.elapsed)
		}
		if int64(r.Latency.Mean()) != tc.mean || int64(r.Latency.Max()) != tc.max {
			t.Errorf("%s: latency mean/max = %d/%d ps, pinned %d/%d ps",
				tc.name, r.Latency.Mean(), r.Latency.Max(), tc.mean, tc.max)
		}
		if r.MeanHops != tc.hops {
			t.Errorf("%s: mean hops = %v, pinned %v", tc.name, r.MeanHops, tc.hops)
		}
		if r.Shards != nil {
			t.Errorf("%s: one-shard run reported shard stats %+v", tc.name, r.Shards)
		}
	}
}

// TestDriveRawShardedDeterministic runs the same contended sharded
// drive twice and requires identical results — the fixed-shard-count
// determinism invariant.
func TestDriveRawShardedDeterministic(t *testing.T) {
	p := cost.Default()
	pat := AllToAll{Rounds: 1}
	a := DriveRawSharded(ClosSpec(64), p, pat, 112, 4)
	b := DriveRawSharded(ClosSpec(64), p, pat, 112, 4)
	if a.Elapsed != b.Elapsed || a.Latency.Mean() != b.Latency.Mean() || a.Latency.Max() != b.Latency.Max() {
		t.Fatalf("repeated sharded runs diverged: %v/%v vs %v/%v",
			a.Elapsed, a.Latency.Mean(), b.Elapsed, b.Latency.Mean())
	}
}

// TestShardedRawRegression pins the sharded outcome of the
// fabrics-style Clos-64 all-to-all point at 2 and 4 shards: completion
// time and the latency distribution in ps, and every shard's events,
// cross-shard posts and barrier windows. Any change to the barrier,
// drain order, partition assignment or cross-shard packet walk shows
// up as a diff here instead of silently shifting published numbers.
func TestShardedRawRegression(t *testing.T) {
	p := cost.Default()
	for _, tc := range []struct {
		shards   int
		elapsed  int64       // ps
		lat      [6]int64    // latPin: Count, Min, Max, Mean, P50, P99
		perShard [][3]uint64 // Events, Posted, Windows
	}{
		{2, 102950000, [6]int64{4032, 2150000, 5350000, 3206250, 3211264, 3735552},
			[][3]uint64{{5856, 1792, 128}, {5856, 1792, 128}}},
		{4, 102950000, [6]int64{4032, 2150000, 5350000, 3214930, 3211264, 5242880},
			[][3]uint64{{3376, 1344, 128}, {3376, 1344, 128}, {3376, 1344, 128}, {3376, 1344, 128}}},
	} {
		res := DriveRawSharded(ClosSpec(64), p, AllToAll{Rounds: 1}, 112, tc.shards)
		if res.Messages != 64*63 {
			t.Fatalf("%d shards: messages = %d, want %d", tc.shards, res.Messages, 64*63)
		}
		if int64(res.Elapsed) != tc.elapsed {
			t.Errorf("%d shards: elapsed = %d ps (%v), pinned %d ps", tc.shards, res.Elapsed, res.Elapsed, tc.elapsed)
		}
		if got := latPin(&res.Latency); got != tc.lat {
			t.Errorf("%d shards: latency = %v, pinned %v", tc.shards, got, tc.lat)
		}
		got := make([][3]uint64, len(res.Shards))
		for i, s := range res.Shards {
			got[i] = [3]uint64{s.Events, s.Posted, s.Windows}
		}
		if !slices.Equal(got, tc.perShard) {
			t.Errorf("%d shards: per-shard events/posted/windows = %v, pinned %v", tc.shards, got, tc.perShard)
		}
	}
}

// TestShardedFMSmall runs the full FM stack across 2 shards on a small
// Clos and checks completion, delivery accounting, and determinism.
func TestShardedFMSmall(t *testing.T) {
	p := cost.Default()
	cfg := core.DefaultConfig()
	a := DriveFMFaultsSharded(ClosSpec(16), cfg, p, AllToAll{Rounds: 1}, 112, nil, 2).Result
	if a.Messages != 16*15 {
		t.Fatalf("messages = %d, want %d", a.Messages, 16*15)
	}
	if a.Latency.Count() != uint64(a.Messages) {
		t.Fatalf("latency samples = %d, want %d", a.Latency.Count(), a.Messages)
	}
	b := DriveFMFaultsSharded(ClosSpec(16), cfg, p, AllToAll{Rounds: 1}, 112, nil, 2).Result
	if a.Elapsed != b.Elapsed || a.Latency.Mean() != b.Latency.Mean() {
		t.Fatalf("repeated sharded FM runs diverged: %v vs %v", a.Elapsed, b.Elapsed)
	}
	t.Logf("sharded FM clos-16: elapsed=%v meanLat=%v", a.Elapsed, a.Latency.Mean())
}
