package workload

import (
	"fmt"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
)

// Soak driver: the streaming counterpart of DriveFM. A batch drive
// injects everything as fast as the layers allow and reports one
// summary; a soak drive runs an open-loop Source against the full FM
// stack and folds the run into fixed-width virtual-time windows
// (stats.Series), so saturation knees, transient congestion, and
// fault-recovery dips are visible as a timeline instead of being
// averaged away.
//
// Latency semantics change with the loop: every send of a source has
// an At instant, so by hold's stamp rule the payload carries the
// *scheduled arrival* instant, not the send instant, and the receiver's
// reading is the sojourn time — source-queue wait included. Below the
// knee sojourn tracks service latency; past it the backlog grows for as
// long as the source keeps offering, and the windowed p99 blows up.
// That is the signature the batch drivers structurally cannot show.
//
// The soak timeline is always computed on one shard, the canonical
// single-kernel engine. Sharded execution is deterministic for a fixed
// shard count, but under contention it grants switch output ports in
// merged head-arrival order where the single kernel grants them in
// injection order, so a contended timeline is not shard-invariant — and
// a saturation study is contended by definition. That is why `fmbench
// -experiment soak` rejects -shards > 1 rather than pretending to honor
// it.

// TerminationMode selects how much of the timeline a soak run reports.
type TerminationMode int

const (
	// TerminateDrain reports the full timeline through quiescence: the
	// windows past the source horizon show the backlog draining, and
	// the timeline length therefore depends on offered load.
	TerminateDrain TerminationMode = iota
	// TerminateHorizon fixes the observation span: exactly the windows
	// covering [0, horizon) are reported, whatever the load. The drive
	// still drains to empty after the bell — every scheduled arrival is
	// delivered and counted in the totals — but post-horizon windows
	// are not part of the reported series, so sweep tables keep one
	// shape across loads.
	TerminateHorizon
)

func (m TerminationMode) String() string {
	if m == TerminateHorizon {
		return "horizon"
	}
	return "drain"
}

// SoakOptions configures the windowing of a soak drive.
type SoakOptions struct {
	// Width is the virtual-time window width (required, positive).
	Width sim.Duration
	// Mode picks the reported span; the zero value is TerminateDrain.
	Mode TerminationMode
	// Faults, when non-empty, is a compiled fault timeline installed on
	// the fabric before traffic starts, so recovery transients (delivery
	// dips, retransmit bursts, sojourn spikes) show up in the windowed
	// series. Ranks then stay alive polling until the settle horizon
	// past the last recovery, exactly like a faulted FM drive.
	Faults []myrinet.FaultWindow
}

// SoakResult is a Result plus the windowed timeline.
type SoakResult struct {
	Result
	// Series is the windowed timeline: offered arrivals, deliveries
	// with sojourn-latency histograms, payload bytes, retransmits. It
	// always spans at least the source horizon (idle tail included) and
	// extends through quiescence.
	Series *stats.Series
	// Horizon is the source's arrival span.
	Horizon sim.Duration
	// Mode is the termination mode the run was asked for.
	Mode TerminationMode
}

// HorizonWindows returns the number of windows covering [0, Horizon).
func (r *SoakResult) HorizonWindows() int {
	w := sim.Time(r.Series.Width())
	return int((sim.Time(r.Horizon) + w - 1) / w)
}

// ReportWindows returns how many leading windows the termination mode
// exposes: every window through quiescence under TerminateDrain, the
// fixed horizon span under TerminateHorizon.
func (r *SoakResult) ReportWindows() int {
	if r.Mode == TerminateHorizon {
		return r.HorizonWindows()
	}
	return r.Series.Len()
}

// SoakDriveFM runs an open-loop source through the complete FM 1.0
// stack on the spec's fabric, one kernel, and returns the windowed
// timeline. It is the closed-loop drive's fmDrive core and fmRank body
// with two different observers: each delivery goes to the series window
// of its instant, and after every extract the rank's new retransmits
// are attributed to the window they happen in. Every scheduled arrival
// is delivered exactly once before the drive returns (the drain
// guarantee all FM drivers share); the termination mode only selects
// how much of the timeline ReportWindows exposes. Panics if any message
// cannot carry the 8-byte stamp — a soak without sojourn readings has
// no timeline to report.
func SoakDriveFM(spec FabricSpec, cfg core.Config, p *cost.Params, src Source, size int, opt SoakOptions) SoakResult {
	d, base := newFMDrive(spec, cfg, p, src, size, opt.Faults, 1)
	series := stats.NewSeries(opt.Width)

	// The offered schedule is a property of the source alone — record
	// it before the simulation so arrival windows never depend on how
	// service unfolded.
	for _, q := range d.sends {
		for j := 0; j < q.Len(); j++ {
			s := q.At(j)
			if sendSize(s, size) < 8 {
				panic(fmt.Sprintf("workload: soak %s on %s: payload %d bytes cannot carry the arrival stamp",
					src.Name(), spec.Name, sendSize(s, size)))
			}
			series.Arrival(sim.Time(s.At))
		}
	}

	// Ranks on one kernel run as coroutines, so sharing one Series is
	// deterministic.
	deliver := series.Delivery
	fr := d.run(base, func(id int, ep *core.Endpoint) sim.Time {
		var seen uint64
		return d.fmRank(id, ep, deliver, func() {
			if r := ep.Stats().Retransmits; r > seen {
				series.Retransmits(ep.Now(), r-seen)
				seen = r
			}
		})
	})
	checkFaultRun(&fr, spec.Name, src.Name())

	res := SoakResult{Result: fr.Result, Series: series, Horizon: src.SourceHorizon(), Mode: opt.Mode}
	for i := 0; i < series.Len(); i++ {
		res.Latency.Merge(&series.Window(i).Lat)
	}
	series.Extend(res.HorizonWindows())
	return res
}
