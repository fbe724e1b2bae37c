package main

import (
	"fmt"
	"math"
	"time"

	"fm/internal/bench"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/sim"
	"fm/internal/stats"
	"fm/internal/workload"
)

// Workload geometry. Every size is fixed here; only soak-open's inputs
// depend on the seeds.
const (
	msgSize   = 112 // 112 B payload + 16 B header = the paper's 128 B frame
	a2aNodes  = 512
	rawNodes  = 2048
	rawShards = 2
	soakNodes = 64

	soakHorizon = 20 * sim.Millisecond
	soakWidth   = sim.Millisecond
)

// soakLoads are the offered loads in MB/s per node: one below the
// clos-64 knee (about 2-2.5 MB/s/node) and one past it.
var soakLoads = [2]float64{1.5, 3}

// seeds are the workload inputs the benchmark derives from its
// arguments; only soak-open consumes them.
type seeds struct {
	poisson uint64 // per-rank Poisson arrival streams
	base    uint64 // the uniform-random destinations the source cycles
}

// callResult is one measured unit of a workload.
type callResult struct {
	span
	attempted int // messages the unit sent
	delivered int // messages delivered exactly once
	fp        string
	// t4err is the Table 4 error the unit computed (p2p-table4 only).
	t4err float64
	// events is the simulated events the unit ran, where visible.
	events uint64
}

// workloadDef binds one workload's entry points.
type workloadDef struct {
	name, why string
	// procs is the run's GOMAXPROCS. It moves FM-stack wall time by
	// about a tenth, so it is fixed per workload: 1 for a single kernel,
	// whose processes hand off one at a time and would otherwise bounce
	// between threads, and one per shard kernel for a sharded run.
	procs int
	// attempts is the message count of one unit, charged as failed when
	// a unit panics.
	attempts func(in seeds) int
	// call runs one unit through the simulator's public entry point.
	call func(in seeds) (callResult, error)
	// traced runs one unit with every layer's counters visible and
	// returns the same fingerprint call does.
	traced func(in seeds) (callResult, *counters, error)
	// setupSample, when set, times the workload's set-up separately
	// (for entry points whose set-up cannot be split off their call).
	setupSample func(in seeds) (time.Duration, error)
	// fidelity returns table4_err_pct for the stack this workload runs;
	// nil when the call computes it.
	fidelity func() (float64, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			name:        "p2p-table4",
			procs:       1,
			why:         "the paper's own Table 4 sweep on a 2-node crossbar: the only workload fitting all ten rows; per-message host stack, checksum and handoff cost",
			attempts:    func(seeds) int { return sweepMessages(table4Options()) },
			call:        p2pCall,
			traced:      p2pTraced,
			setupSample: func(seeds) (time.Duration, error) { return sweepSetup(table4Options(), cost.Default()) },
		},
		{
			name:        "clos-a2a-fm",
			why:         "one 512-node all-to-all through the full FM stack: the scale path, 1024 processes handing off, working set far beyond cache",
			attempts:    func(seeds) int { return a2aNodes * (a2aNodes - 1) },
			call:        a2aFMCall,
			traced:      a2aFMTraced,
			setupSample: func(seeds) (time.Duration, error) { return a2aFMSetup() },
			fidelity:    func() (float64, error) { return rowsErrPct([]rowSpec{rowByName("Streamed + hybrid + buf + flow")}) },
		},
		{
			name:     "clos-a2a-raw-2shard",
			procs:    rawShards,
			why:      "a 2048-node all-to-all on the bare fabric over 2 shard kernels: fabric forwarding dominates; the only sharded workload",
			attempts: func(seeds) int { return rawNodes * (rawNodes - 1) },
			call:     func(seeds) (callResult, error) { r, _, err := rawRun(); return r, err },
			traced:   func(seeds) (callResult, *counters, error) { return rawRun() },
			fidelity: func() (float64, error) {
				return rowsErrPct([]rowSpec{rowByName("Baseline LCP (LANai only)"), rowByName("Streamed LCP (LANai only)")})
			},
		},
		{
			name:        "soak-open",
			why:         "open-loop Poisson uniform-random traffic on a 64-node Clos below and past the knee: polling ranks, stats.Series, simulated tail latency",
			attempts:    soakAttempts,
			call:        func(in seeds) (callResult, error) { r, _, err := soakRun(in, false); return r, err },
			traced:      func(in seeds) (callResult, *counters, error) { return soakRun(in, true) },
			setupSample: soakSetup,
			fidelity:    func() (float64, error) { return rowsErrPct([]rowSpec{rowByName("Streamed + hybrid + buf + flow")}) },
		},
	}
}

// --- p2p-table4 ---

func rowPrint(f *fingerprint, name string, c [3]float64, extrap bool) {
	f.add(name, c[0], c[1], c[2], extrap)
}

func p2pCall(seeds) (callResult, error) {
	opt := table4Options()
	start, cpu0 := time.Now(), cpuTime()
	r := bench.Table4(opt)
	res := callResult{span: span{wall: time.Since(start), cpu: cpuTime() - cpu0}}

	specs := table4Rows()
	if len(r.Rows) != len(specs) {
		return res, fmt.Errorf("table4 printed %d rows, want %d", len(r.Rows), len(specs))
	}
	var f fingerprint
	var simCells, paper [][3]float64
	for i, row := range r.Rows {
		if row.Name != specs[i].name {
			return res, fmt.Errorf("table4 row %d is %q, want %q", i, row.Name, specs[i].name)
		}
		var pc [3]float64
		for j, s := range []string{row.PaperT0, row.PaperR, row.PaperN} {
			v, err := parsePaperCell(s)
			if err != nil {
				return res, err
			}
			pc[j] = v
		}
		if pc != specs[i].paper {
			return res, fmt.Errorf("table4 row %q paper cells %v, want %v", row.Name, pc, specs[i].paper)
		}
		c := [3]float64{row.T0us, row.RInf, row.NHalf}
		for _, v := range c {
			if !(v > 0) || math.IsInf(v, 0) {
				return res, fmt.Errorf("table4 row %q has cell %v", row.Name, v)
			}
		}
		rowPrint(&f, row.Name, c, row.Extrap)
		simCells = append(simCells, c)
		paper = append(paper, pc)
	}
	res.attempted = sweepMessages(opt)
	res.delivered = res.attempted // every stream point panics short of full delivery
	res.fp = f.sum()
	res.t4err = errPct(simCells, paper)
	return res, nil
}

func p2pTraced(seeds) (callResult, *counters, error) {
	opt := table4Options()
	p := cost.Default()
	cnt := &counters{}
	bt := &buildTimes{}
	var f fingerprint
	start, cpu0 := time.Now(), cpuTime()
	for _, r := range table4Rows() {
		fit, err := runRow(r, opt, p, bt, cnt.addStack)
		if err != nil {
			return callResult{}, nil, err
		}
		rowPrint(&f, r.name, cells(fit), fit.NHalfExtrapolated)
	}
	res := callResult{span: span{wall: time.Since(start), cpu: cpuTime() - cpu0}}
	cnt.fabricBuild, cnt.clusterBuild = bt.fabric, bt.cluster-bt.fabric
	res.attempted = sweepMessages(opt)
	res.delivered = res.attempted
	res.fp = f.sum()
	res.events = cnt.events
	cnt.messages = res.attempted
	return res, cnt, nil
}

// --- clos-a2a-fm ---

// batchPrint adds a batch driver's public results to a fingerprint.
func batchPrint(f *fingerprint, res *workload.Result, events uint64) {
	f.add("result", res.Pattern, res.Fabric, res.Messages, res.PayloadBytes, int64(res.Elapsed), res.MeanHops)
	f.hist("latency", &res.Latency)
	f.add("events", events)
	for i, s := range res.Shards {
		f.add("shard", i, s.Events, s.Posted, s.Windows)
	}
}

// checkBatch verifies a batch drive delivered every message exactly once.
func checkBatch(res *workload.Result, nodes int) error {
	want := nodes * (nodes - 1)
	if res.Messages != want || res.PayloadBytes != int64(want)*msgSize {
		return fmt.Errorf("%s: %d messages / %d bytes, want %d / %d",
			res.Pattern, res.Messages, res.PayloadBytes, want, want*msgSize)
	}
	if got := res.Latency.Count(); got != uint64(want) {
		return fmt.Errorf("%s: %d deliveries recorded for %d messages", res.Pattern, got, want)
	}
	if res.Elapsed <= 0 {
		return fmt.Errorf("%s: no simulated time elapsed", res.Pattern)
	}
	return nil
}

// batchResult fingerprints and checks one all-to-all round on nodes.
func batchResult(res *workload.Result, nodes int, pb *probe, sp span) (callResult, error) {
	var f fingerprint
	batchPrint(&f, res, pb.simEvents())
	for _, fab := range pb.fabs {
		f.fabric("fabric", fab)
	}
	cr := callResult{span: sp, attempted: res.Messages, fp: f.sum(), events: pb.simEvents()}
	if err := checkBatch(res, nodes); err != nil {
		return cr, err
	}
	cr.delivered = res.Messages
	return cr, nil
}

func a2aFMCall(seeds) (callResult, error) {
	pb := &probe{}
	spec := pb.wrap(workload.ClosSpec(a2aNodes))
	start, cpu0 := time.Now(), cpuTime()
	res := workload.DriveFM(spec, core.DefaultConfig(), cost.Default(), workload.AllToAll{Rounds: 1}, msgSize)
	return batchResult(&res, a2aNodes, pb, pb.split(start, cpu0))
}

func a2aFMTraced(seeds) (callResult, *counters, error) {
	pb := &probe{}
	spec := pb.wrap(workload.ClosSpec(a2aNodes))
	start, cpu0 := time.Now(), cpuTime()
	fp := buildFM(spec, workload.AllToAll{Rounds: 1})
	c, res := fp.c, &fp.res
	for id := range fp.seqs {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			fmRank(ep, fp.seqs[id], fp.expect[id], msgSize, fp.buf(id), &res.Latency)
		})
	}
	if err := c.Run(); err != nil {
		return callResult{}, nil, err
	}
	res.Elapsed = sim.Duration(c.K.Now())
	cr, err := batchResult(res, a2aNodes, pb, pb.split(start, cpu0))
	cnt := &counters{events: cr.events, messages: res.Messages, simElapsed: res.Elapsed, lat: res.Latency,
		fabricBuild: pb.fabricBuild, clusterBuild: fp.build - pb.fabricBuild, prep: fp.prep}
	cnt.addCluster(c)
	return cr, cnt, err
}

// a2aFMSetup times the prologue of one DriveFM all-to-all, then runs
// the idle cluster so its control programs unwind.
func a2aFMSetup() (time.Duration, error) {
	start := time.Now()
	fp := buildFM(workload.ClosSpec(a2aNodes), workload.AllToAll{Rounds: 1})
	d := time.Since(start)
	return d, fp.c.Run()
}

// --- clos-a2a-raw-2shard ---

// rawRun drives the raw sharded all-to-all through the public driver;
// the probe exposes both fabric replicas, so no composition is needed.
func rawRun() (callResult, *counters, error) {
	pb := &probe{}
	spec := pb.wrap(workload.ClosSpec(rawNodes))
	start, cpu0 := time.Now(), cpuTime()
	res := workload.DriveRawSharded(spec, cost.Default(), workload.AllToAll{Rounds: 1}, msgSize, rawShards)
	cr, err := batchResult(&res, rawNodes, pb, pb.split(start, cpu0))
	if err == nil && len(res.Shards) != rawShards {
		err = fmt.Errorf("raw drive reported %d shards, want %d", len(res.Shards), rawShards)
	}
	cnt := &counters{events: cr.events, messages: res.Messages, shards: res.Shards,
		fabricBuild: pb.fabricBuild, prep: cr.setup - pb.fabricBuild,
		simElapsed: res.Elapsed, lat: res.Latency}
	for _, fab := range pb.fabs {
		cnt.addFabric(fab)
	}
	return cr, cnt, err
}

// --- soak-open ---

func soakSource(in seeds, load float64) workload.PoissonSource {
	gap := sim.Duration(float64(msgSize) / (load * metrics.MiB) * float64(sim.Second))
	return workload.PoissonSource{
		Base:    workload.UniformRandom{Seed: in.base, Packets: 16},
		Seed:    in.poisson,
		MeanGap: gap,
		Horizon: soakHorizon,
	}
}

func soakAttempts(in seeds) int {
	n := 0
	for _, load := range soakLoads {
		n += workload.Total(soakSource(in, load), soakNodes)
	}
	return n
}

// soakPrint adds one load point's public results to a fingerprint.
func soakPrint(f *fingerprint, load float64, res *workload.SoakResult, events uint64) {
	f.add("load", load)
	batchPrint(f, &res.Result, events)
	for i := 0; i < res.Series.Len(); i++ {
		w := res.Series.Window(i)
		f.add("window", i, w.Offered, w.Delivered, w.Bytes, w.Retrans)
		f.hist("window.lat", &w.Lat)
	}
}

// checkSoak verifies every scheduled arrival was delivered exactly once.
func checkSoak(res *workload.SoakResult) error {
	offered, delivered, _, _ := res.Series.Totals()
	if int(offered) != res.Messages || int(delivered) != res.Messages ||
		res.Latency.Count() != uint64(res.Messages) {
		return fmt.Errorf("soak: %d offered, %d delivered, %d latencies for %d messages",
			offered, delivered, res.Latency.Count(), res.Messages)
	}
	return nil
}

// soakRun drives both load points. Untraced, each goes through
// workload.SoakDriveFM; traced, through the composed stack.
func soakRun(in seeds, traced bool) (callResult, *counters, error) {
	var cr callResult
	var f fingerprint
	cnt := &counters{}
	for i, load := range soakLoads {
		pb := &probe{}
		spec := pb.wrap(workload.ClosSpec(soakNodes))
		src := soakSource(in, load)
		start, cpu0 := time.Now(), cpuTime()
		var res workload.SoakResult
		if traced {
			var err error
			if res, err = soakComposed(spec, src, pb, cnt); err != nil {
				return cr, nil, err
			}
		} else {
			res = workload.SoakDriveFM(spec, core.DefaultConfig(), cost.Default(), src, msgSize,
				workload.SoakOptions{Width: soakWidth, Mode: workload.TerminateHorizon})
		}
		sp := pb.split(start, cpu0)
		cr.setup += sp.setup
		cr.wall += sp.wall
		cr.cpu += sp.cpu
		cr.attempted += res.Messages
		cr.events += pb.simEvents()
		soakPrint(&f, load, &res, pb.simEvents())
		for _, fab := range pb.fabs {
			f.fabric("fabric", fab)
		}
		if err := checkSoak(&res); err != nil {
			return cr, nil, err
		}
		cr.delivered += res.Messages
		cnt.simElapsed += res.Elapsed
		if i == 0 {
			cnt.lat = res.Latency
		} else {
			cnt.satLat = res.Latency
		}
	}
	cr.fp = f.sum()
	cnt.events = cr.events
	cnt.messages = cr.attempted
	return cr, cnt, nil
}

// soakPrologue is SoakDriveFM's prologue on a healthy fabric: the FM
// prologue plus the series with the offered schedule booked into it.
func soakPrologue(spec workload.FabricSpec, src workload.PoissonSource) (*fmPrologue, *workload.SoakResult, error) {
	fp := buildFM(spec, src)
	t := time.Now()
	res := &workload.SoakResult{Result: fp.res, Horizon: src.SourceHorizon(), Mode: workload.TerminateHorizon}
	res.Series = stats.NewSeries(soakWidth)
	err := recordArrivals(res.Series, fp.seqs, msgSize)
	fp.prep += time.Since(t)
	return fp, res, err
}

// soakSetup times the prologues of both load points, then runs each
// idle cluster so its control programs unwind.
func soakSetup(in seeds) (time.Duration, error) {
	var total time.Duration
	for _, load := range soakLoads {
		start := time.Now()
		fp, _, err := soakPrologue(workload.ClosSpec(soakNodes), soakSource(in, load))
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
		if err := fp.c.Run(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// soakComposed is workload.SoakDriveFM on a healthy fabric, composed
// from public constructors so every layer's counters stay readable.
func soakComposed(spec workload.FabricSpec, src workload.PoissonSource, pb *probe, cnt *counters) (workload.SoakResult, error) {
	fp, res, err := soakPrologue(spec, src)
	if err != nil {
		return *res, err
	}
	cnt.prep += fp.prep
	cnt.fabricBuild += pb.fabricBuild
	cnt.clusterBuild += fp.build - pb.fabricBuild

	c, series := fp.c, res.Series
	for id := range fp.seqs {
		id := id
		c.Start(id, func(ep *core.Endpoint) {
			soakRank(ep, fp.seqs[id], fp.expect[id], msgSize, fp.buf(id), series)
		})
	}
	if err := c.Run(); err != nil {
		return *res, err
	}
	res.Elapsed = sim.Duration(c.K.Now())
	if stranded := c.Fab.PendingStranded(); stranded != 0 {
		return *res, fmt.Errorf("soak left %d frames stranded", stranded)
	}
	for i := 0; i < series.Len(); i++ {
		res.Latency.Merge(&series.Window(i).Lat)
	}
	series.Extend(res.HorizonWindows())
	cnt.addCluster(c)
	return *res, nil
}
