package workload

import (
	"testing"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
)

// fmPin is one FM-level drive's simulated outcome, every time in ps.
// Fields a driver's result does not carry stay zero.
type fmPin struct {
	Elapsed      int64
	LastDelivery int64
	// Lat is the latency histogram's Count, Min, Max, Mean, P50, P99.
	Lat    [6]int64
	Stats  core.Stats
	Fault  myrinet.FaultStats
	Series [4]uint64 // offered, delivered, bytes, retransmits
}

func latPin(h *stats.Histogram) [6]int64 {
	return [6]int64{int64(h.Count()), int64(h.Min()), int64(h.Max()), int64(h.Mean()),
		int64(h.Percentile(0.50)), int64(h.Percentile(0.99))}
}

func faultPin(r FaultResult) fmPin {
	return fmPin{Elapsed: int64(r.Elapsed), LastDelivery: int64(r.LastDelivery),
		Lat: latPin(&r.Latency), Stats: r.Stats, Fault: r.Fault}
}

func soakPin(r SoakResult) fmPin {
	off, del, bytes, retrans := r.Series.Totals()
	return fmPin{Elapsed: int64(r.Elapsed), Lat: latPin(&r.Latency), Series: [4]uint64{off, del, bytes, retrans}}
}

// pinWindows parses a hand-written plan.
func pinWindows(t *testing.T, text string) []myrinet.FaultWindow {
	t.Helper()
	plan, err := ParseFaultPlan(text)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Windows
}

// TestFMDriversPinned pins every FM-level driver's simulated values to
// recorded constants, as lcp's TestTable4EventCounts pins the control
// program. The determinism tests compare a run with itself, so a change
// that moves one event in a drive body passes them; it fails here. A
// change that means to move these values updates them and says why.
func TestFMDriversPinned(t *testing.T) {
	p := cost.Default()
	cfg := core.DefaultConfig()
	clos16 := ClosSpec(16)
	plan := pinWindows(t, "link 0 20 120; loss 3 30 90; node 5 40 70")
	soakPlan := pinWindows(t, "link 3 100 300; node 2 150 250")
	// The switch and corruption windows no other case names.
	kindPlan := pinWindows(t, "switch 6 20 120; corrupt 9 15 110; loss 12 25 80")
	uniform := UniformRandom{Seed: 42, Packets: 4}
	for _, tc := range []struct {
		name string
		run  func() fmPin
		want fmPin
	}{
		{"DriveFM clos-16 all-to-all", func() fmPin {
			r := DriveFM(clos16, cfg, p, AllToAll{Rounds: 1}, 112)
			return fmPin{Elapsed: int64(r.Elapsed), Lat: latPin(&r.Latency)}
		}, fmPin{Elapsed: 290742000,
			Lat: [6]int64{240, 32902000, 112640000, 71341133, 73400320, 111149056}}},
		{"DriveFMFaultsSharded clos-16 faulted 1 shard", func() fmPin {
			return faultPin(DriveFMFaultsSharded(clos16, cfg, p, AllToAll{Rounds: 2}, 64, plan, 1))
		}, fmPin{Elapsed: 754546000, LastDelivery: 590160000,
			Lat:   [6]int64{480, 33770000, 564020000, 243670804, 251658240, 478150656},
			Stats: core.Stats{Sent: 501, Delivered: 480, AcksSent: 296, AcksPiggybacked: 11, SeqsAcked: 480, NetBounces: 27, Retransmits: 27},
			Fault: myrinet.FaultStats{LinkDowns: 1, NodeDowns: 1, Recoveries: 2, Bounced: 20, Lost: 10, Unroutable: 7, Stranded: 6}}},
		{"DriveFMFaultsSharded clos-16 faulted 2 shards", func() fmPin {
			return faultPin(DriveFMFaultsSharded(clos16, cfg, p, AllToAll{Rounds: 2}, 64, plan, 2))
		}, fmPin{Elapsed: 754546000, LastDelivery: 590160000,
			Lat:   [6]int64{480, 33770000, 564020000, 243676116, 251658240, 478150656},
			Stats: core.Stats{Sent: 501, Delivered: 480, AcksSent: 295, AcksPiggybacked: 12, SeqsAcked: 480, NetBounces: 27, Retransmits: 27},
			Fault: myrinet.FaultStats{LinkDowns: 1, NodeDowns: 1, Recoveries: 2, Bounced: 20, Lost: 10, Unroutable: 7, Stranded: 6}}},
		{"DriveFMFaultsSharded clos-16 switch+corrupt 1 shard", func() fmPin {
			return faultPin(DriveFMFaultsSharded(clos16, cfg, p, AllToAll{Rounds: 2}, 64, kindPlan, 1))
		}, fmPin{Elapsed: 754918000, LastDelivery: 512744000,
			Lat:   [6]int64{480, 30310000, 480506000, 237500420, 251658240, 452984832},
			Stats: core.Stats{Sent: 506, Delivered: 480, AcksSent: 292, AcksPiggybacked: 12, SeqsAcked: 480, NetBounces: 28, Retransmits: 28},
			Fault: myrinet.FaultStats{SwitchDowns: 1, Recoveries: 1, Bounced: 28, Corrupted: 16}}},
		{"DriveFMFaultsSharded clos-16 switch+corrupt 2 shards", func() fmPin {
			return faultPin(DriveFMFaultsSharded(clos16, cfg, p, AllToAll{Rounds: 2}, 64, kindPlan, 2))
		}, fmPin{Elapsed: 754918000, LastDelivery: 512744000,
			Lat:   [6]int64{480, 30310000, 480506000, 237498462, 251658240, 452984832},
			Stats: core.Stats{Sent: 506, Delivered: 480, AcksSent: 292, AcksPiggybacked: 12, SeqsAcked: 480, NetBounces: 28, Retransmits: 28},
			Fault: myrinet.FaultStats{SwitchDowns: 1, Recoveries: 1, Bounced: 28, Corrupted: 16}}},
		{"SoakDriveFM clos-16 poisson", func() fmPin {
			src := PoissonSource{Base: uniform, Seed: 7, MeanGap: 10 * sim.Microsecond, Horizon: 200 * sim.Microsecond}
			return soakPin(SoakDriveFM(clos16, cfg, p, src, 112, SoakOptions{Width: 50 * sim.Microsecond}))
		}, fmPin{Elapsed: 805297531,
			Lat:    [6]int64{371, 30342126, 611082811, 226133049, 188743680, 570425344},
			Series: [4]uint64{371, 371, 41552, 0}}},
		{"SoakDriveFM clos-16 fixed-rate faulted", func() fmPin {
			src := FixedRateSource{Base: uniform, Gap: 8 * sim.Microsecond, Horizon: 400 * sim.Microsecond}
			return soakPin(SoakDriveFM(clos16, cfg, p, src, 112,
				SoakOptions{Width: 50 * sim.Microsecond, Mode: TerminateHorizon, Faults: soakPlan}))
		}, fmPin{Elapsed: 1476856000,
			Lat:    [6]int64{800, 29508000, 1218474000, 362383952, 310378496, 1040187392},
			Series: [4]uint64{800, 800, 89600, 33}}},
		// 3 MB/s/node of 112-byte messages, past the clos-64 knee (about
		// 2-2.5 MB/s/node): receive queues back up, so the Extract loop
		// keeps finding packets that arrived during the host's own
		// per-packet work. Reading the queue before that work is paid
		// moves these values.
		{"SoakDriveFM clos-64 poisson past the knee", func() fmPin {
			src := PoissonSource{Base: UniformRandom{Seed: 1995, Packets: 16}, Seed: 1995,
				MeanGap: 35600 * sim.Nanosecond, Horizon: 5 * sim.Millisecond}
			return soakPin(SoakDriveFM(ClosSpec(64), cfg, p, src, 112,
				SoakOptions{Width: sim.Millisecond, Mode: TerminateHorizon}))
		}, fmPin{Elapsed: 5638929095,
			Lat:    [6]int64{9366, 25014170, 1500944103, 131023463, 57671680, 754974720},
			Series: [4]uint64{9366, 9366, 1048992, 0}}},
		{"DriveMPI clos-8 uniform-random", func() fmPin {
			r := DriveMPI(ClosSpec(8), cfg, p, UniformRandom{Seed: 9, Packets: 4}, 112)
			return fmPin{Elapsed: int64(r.Elapsed), Lat: latPin(&r.Latency)}
		}, fmPin{Elapsed: 253580400,
			Lat: [6]int64{32, 68840000, 203440000, 141194150, 146800640, 201326592}}},
	} {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s:\n got %#v\nwant %#v", tc.name, got, tc.want)
		}
	}
}
