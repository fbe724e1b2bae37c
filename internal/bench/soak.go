package bench

import (
	"fmt"
	"math"
	"sort"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
	"fm/internal/workload"
)

// The soak experiment: sustained open-loop load through the full FM
// stack, reported as a windowed time series per offered-load point.
// Batch experiments average a run into one summary; the soak ladder
// sweeps offered load across the FM host path's service capacity and
// shows, window by window, where the saturation knee sits — delivered
// bandwidth flattening while sojourn p99 and backlog blow up.
//
// The timeline is always computed on the canonical single-kernel
// engine, and ValidateSoak rejects -shards > 1 for it. A
// sharded engine is deterministic for a fixed shard count, but under
// contention it grants switch output ports in merged head-arrival
// order where the single kernel grants them in injection order — and a
// saturation study is contended by definition. Pinning the one
// canonical engine is what makes this report byte-identical at any
// -workers value.

// soakBase resolves the named base pattern the source cycles through:
// any catalog pattern but broadcast, whose one root would be the only
// rank sending under sustained load.
func soakBase(name string) (workload.Pattern, error) {
	return catalogPattern("-soak-pattern", name, func(p workload.Pattern) bool { return p.Name() != "broadcast" })
}

// soakGap converts one offered-load point (MB/s per node) into the
// per-rank mean interarrival gap for framePayload-byte messages.
func soakGap(loadMBps float64) sim.Duration {
	return sim.Duration(soakGapPs(loadMBps))
}

// soakGapPs is soakGap before the conversion to integer picoseconds,
// which ValidateSoak checks is defined.
func soakGapPs(loadMBps float64) float64 {
	return float64(framePayload) / (loadMBps * metrics.MiB) * float64(sim.Second)
}

// soakSource builds the arrival process for one load point.
func soakSource(opt Options, base workload.Pattern, loadMBps float64) workload.Source {
	horizon := sim.Duration(opt.SoakHorizonUs) * sim.Microsecond
	gap := soakGap(loadMBps)
	if opt.SoakSource == "fixed" {
		return workload.FixedRateSource{Base: base, Gap: gap, Horizon: horizon}
	}
	return workload.PoissonSource{Base: base, Seed: opt.SoakSeed, MeanGap: gap, Horizon: horizon}
}

// soakFaults parses the optional -fault-plan and checks it against the
// soak fabric and horizon. Only an explicit plan applies — the faults
// experiment's seed default must not leak fault traffic into a load
// study nobody asked it of.
func soakFaults(opt Options, n int) ([]myrinet.FaultWindow, error) {
	if opt.FaultPlan == "" {
		return nil, nil
	}
	plan, err := workload.ParseFaultPlan(opt.FaultPlan)
	if err != nil {
		return nil, err
	}
	topo := workload.ClosSpec(n).Build(sim.NewKernel(), cost.Default()).Topology()
	return plan.Windows, topo.CheckFaults(plan.Windows, sim.Time(sim.Us(int64(opt.SoakHorizonUs))))
}

// soakNodes is the node count the soak experiment builds for
// opt.SoakNodes: at least 8, adjusted to what the base pattern serves.
func soakNodes(opt Options, base workload.Pattern) int {
	return workload.AdjustNodes(base, max(opt.SoakNodes, 8))
}

// ValidateSoak checks every -soak-* setting (and the optional fault
// plan) before anything runs, so fmbench can reject a bad combination
// without costing a partial sweep. It rejects -shards > 1 first, since
// the timeline runs on one kernel whatever the rest says.
func ValidateSoak(opt Options) error {
	if err := checkShards(opt, "soak", 1, "the soak timeline is computed on the canonical single-kernel engine: "+
		"a saturation study is contended by definition, and sharded contention resolves in a different order"); err != nil {
		return err
	}
	if opt.SoakSource != "poisson" && opt.SoakSource != "fixed" {
		return fmt.Errorf("unknown -soak-source %q (valid: poisson, fixed)", opt.SoakSource)
	}
	base, err := soakBase(opt.SoakPattern)
	if err != nil {
		return err
	}
	if len(opt.SoakLoads) == 0 {
		return fmt.Errorf("-soak-loads is empty: need at least one offered-load point (MB/s per node)")
	}
	for _, l := range opt.SoakLoads {
		if l <= 0 {
			return fmt.Errorf("-soak-loads entry %g: offered load must be positive MB/s per node", l)
		}
		// NaN, Inf, and loads so small or so large that the gap
		// overflows or truncates to zero leave no gap to schedule.
		if ps := soakGapPs(l); !(ps >= 1 && ps < math.MaxInt64) {
			return fmt.Errorf("-soak-loads entry %g: its interarrival gap (%g ps) is not a positive, finite number of picoseconds",
				l, ps)
		}
	}
	if opt.SoakHorizonUs <= 0 {
		return fmt.Errorf("-soak-horizon-us %d: the arrival horizon must be positive", opt.SoakHorizonUs)
	}
	// The horizon becomes a sim.Duration in picoseconds; the window,
	// checked below to be no longer than the horizon, then fits too.
	if maxUs := int64(math.MaxInt64 / sim.Microsecond); int64(opt.SoakHorizonUs) > maxUs {
		return fmt.Errorf("-soak-horizon-us %d overflows the simulator's picosecond clock (at most %d)",
			opt.SoakHorizonUs, maxUs)
	}
	if opt.SoakWindowUs <= 0 {
		return fmt.Errorf("-soak-window-us %d: the series window must be positive", opt.SoakWindowUs)
	}
	if opt.SoakWindowUs > opt.SoakHorizonUs {
		return fmt.Errorf("-soak-window-us %d exceeds -soak-horizon-us %d: a soak needs at least one full window",
			opt.SoakWindowUs, opt.SoakHorizonUs)
	}
	n := soakNodes(opt, base)
	if err := checkClos("-soak-nodes", n); err != nil {
		return err
	}
	_, err = soakFaults(opt, n)
	return err
}

// Soak regenerates the open-loop load study: one windowed time series
// per offered-load point plus the cross-load knee table.
func Soak(opt Options) *Report {
	p := cost.Default()
	cfg := core.DefaultConfig()
	base, err := soakBase(opt.SoakPattern)
	if err != nil {
		panic(fmt.Sprintf("bench: soak: %v", err))
	}
	n := soakNodes(opt, base)
	ws, err := soakFaults(opt, n)
	if err != nil {
		panic(fmt.Sprintf("bench: soak: %v", err))
	}
	spec := workload.ClosSpec(n)
	mode := workload.TerminateHorizon
	if opt.SoakDrain {
		mode = workload.TerminateDrain
	}
	sopt := workload.SoakOptions{
		Width:  sim.Duration(opt.SoakWindowUs) * sim.Microsecond,
		Mode:   mode,
		Faults: ws,
	}

	loads := append([]float64(nil), opt.SoakLoads...)
	sort.Float64s(loads)
	results := make([]workload.SoakResult, len(loads))
	jobs := make([]func(), len(loads))
	for i, load := range loads {
		i, load := i, load
		jobs[i] = func() {
			results[i] = workload.SoakDriveFM(spec, cfg, p, soakSource(opt, base, load), framePayload, sopt)
		}
	}
	runParallel(opt.Workers, jobs)

	r := &Report{ID: "soak", Title: fmt.Sprintf("Open-loop soak on clos-%d: %s arrivals over %s, %dus horizon",
		n, opt.SoakSource, opt.SoakPattern, opt.SoakHorizonUs)}

	us := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
	horizon := sim.Duration(opt.SoakHorizonUs) * sim.Microsecond
	knee := Table{Name: "offered-load ladder", Header: []string{
		"offered (MB/s/node)", "arrivals", "delivered (MB/s/node)",
		"p50 (us)", "p99 (us)", "p999 (us)", "backlog@bell", "retrans", "drain (us)"}}
	for i, load := range loads {
		res := &results[i]
		series := res.Series
		rows := res.ReportWindows()
		ts := TimeSeries{
			Name:    fmt.Sprintf("offered %g MB/s per node (%s)", load, res.Pattern),
			WidthUs: us(series.Width()),
		}
		for w := 0; w < rows; w++ {
			win := series.Window(w)
			ts.Rows = append(ts.Rows, SeriesRow{
				StartUs:   us(sim.Duration(series.Start(w))),
				Offered:   win.Offered,
				Delivered: win.Delivered,
				MBps:      float64(win.Bytes) / metrics.MiB / series.Width().Seconds(),
				P50us:     us(win.Lat.Percentile(0.50)),
				P99us:     us(win.Lat.Percentile(0.99)),
				P999us:    us(win.Lat.Percentile(0.999)),
				InFlight:  series.InFlight(w),
				Retrans:   win.Retrans,
			})
		}
		r.Series = append(r.Series, ts)

		_, _, bytes, retrans := series.Totals()
		drain := res.Elapsed - horizon
		if drain < 0 {
			drain = 0
		}
		knee.Rows = append(knee.Rows, []string{
			fmt.Sprintf("%g", load),
			fmt.Sprintf("%d", res.Messages),
			// Delivered rate over the span it took to deliver: capped at
			// service capacity however hard the source pushes.
			fmt.Sprintf("%.2f", float64(bytes)/float64(n)/metrics.MiB/res.Elapsed.Seconds()),
			fmt.Sprintf("%.1f", us(res.Latency.Percentile(0.50))),
			fmt.Sprintf("%.1f", us(res.Latency.Percentile(0.99))),
			fmt.Sprintf("%.1f", us(res.Latency.Percentile(0.999))),
			fmt.Sprintf("%d", series.InFlight(res.HorizonWindows()-1)),
			fmt.Sprintf("%d", retrans),
			fmt.Sprintf("%.0f", us(drain)),
		})
	}
	r.Tables = append(r.Tables, knee)

	// Steady-state estimates: the same ladder with the warm-up trimmed
	// off. The untrimmed percentiles above fold the cold start — empty
	// queues, unprimed credit windows — into the distribution, biasing
	// the tail low at the knee and the median low everywhere. Trim rule:
	// with W whole horizon windows, drop the first k = W/4 windows,
	// clamped to [1, W-1] (so at least one window is dropped and at
	// least one kept) when W >= 2, and k = 0 when a single window is all
	// there is. The trimmed columns aggregate windows [k, W) only —
	// deliveries landing in the post-horizon drain are excluded, so this
	// table estimates the sustained-load plateau, not the cleanup.
	steady := Table{Name: "steady state (warm-up trimmed)", Header: []string{
		"offered (MB/s/node)", "trim (windows)", "steady delivered (MB/s/node)",
		"trim p50 (us)", "trim p99 (us)", "full p50 (us)", "full p99 (us)"}}
	for i, load := range loads {
		res := &results[i]
		series := res.Series
		W := res.HorizonWindows()
		k := 0
		if W >= 2 {
			k = W / 4
			if k < 1 {
				k = 1
			}
			if k > W-1 {
				k = W - 1
			}
		}
		var lat stats.Histogram
		var bytes uint64
		for w := k; w < W; w++ {
			win := series.Window(w)
			lat.Merge(&win.Lat)
			bytes += win.Bytes
		}
		span := sim.Duration(W-k) * series.Width()
		steady.Rows = append(steady.Rows, []string{
			fmt.Sprintf("%g", load),
			fmt.Sprintf("%d/%d", k, W),
			fmt.Sprintf("%.2f", float64(bytes)/float64(n)/metrics.MiB/span.Seconds()),
			fmt.Sprintf("%.1f", us(lat.Percentile(0.50))),
			fmt.Sprintf("%.1f", us(lat.Percentile(0.99))),
			fmt.Sprintf("%.1f", us(res.Latency.Percentile(0.50))),
			fmt.Sprintf("%.1f", us(res.Latency.Percentile(0.99))),
		})
	}
	r.Tables = append(r.Tables, steady)

	r.Notes = append(r.Notes,
		"steady state: windows [k, W) of the W-window horizon, k = W/4 clamped to [1, W-1] (0 when W < 2); drain-period deliveries excluded — the trimmed columns estimate the sustained plateau",
		"open loop: arrivals follow the source's schedule whether or not the system keeps up; latency is sojourn (scheduled arrival to delivery), source-queue wait included",
		"the knee is where delivered MB/s stops tracking offered MB/s: past it the backlog at the horizon bell and the sojourn p99 grow without bound",
		fmt.Sprintf("termination: %s — every arrival is still delivered (the drain column is the post-horizon cleanup time)", sopt.Mode),
		"deterministic: the timeline is computed on the canonical single-kernel engine, so this report is byte-identical at any -workers setting",
	)
	if len(ws) > 0 {
		r.Notes = append(r.Notes, "fault plan overlaid on every load point (-fault-plan): recovery transients show as delivery dips and retransmit bursts in the windows")
	}
	return r
}
