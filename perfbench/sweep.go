package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"fm/internal/bench"
	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/metrics"
	"fm/internal/myriapi"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
)

// The Table 4 sweep rebuilt from public constructors. bench.Table4 hides
// every stack it builds; this composition builds the same stacks in the
// same order, so the traced p2p run can read each layer's counters and
// the benchmark can fit single rows. Every composed row must reproduce
// bench.Table4's cells exactly.

type rowKind int

const (
	lanaiRow rowKind = iota // LANai to LANai, no host (Fig. 3)
	fmRow                   // host to host through an FM configuration
	apiRow                  // host to host through the Myrinet API
)

// sbusWriteRef is the r_inf the paper substitutes for the API rows'
// n1/2 (footnote 3), as bench.Table4 uses it.
const sbusWriteRef = 23.9

// rowSpec is one Table 4 line: how to build its stacks, and the paper's
// published t0 (us), r_inf (MB/s) and n1/2 (bytes).
type rowSpec struct {
	name     string
	kind     rowKind
	streamed bool // lanaiRow: streamed LCP loop
	cfg      core.Config
	api      myriapi.Variant
	paper    [3]float64
}

// table4Rows lists the rows in the order bench.Table4 prints them.
func table4Rows() []rowSpec {
	fullSwitch := core.DefaultConfig()
	fullSwitch.Interpret = true
	return []rowSpec{
		{name: "Baseline LCP (LANai only)", kind: lanaiRow, paper: [3]float64{4.2, 76.3, 315}},
		{name: "Streamed LCP (LANai only)", kind: lanaiRow, streamed: true, paper: [3]float64{3.5, 76.3, 249}},
		{name: "Streamed + hybrid", kind: fmRow, cfg: bench.ConfigHybridVestigial(), paper: [3]float64{3.5, 21.2, 44}},
		{name: "Streamed + hybrid + buf", kind: fmRow, cfg: bench.ConfigBufMgmt(), paper: [3]float64{3.8, 21.9, 53}},
		{name: "Streamed + hybrid + buf + flow", kind: fmRow, cfg: bench.ConfigFullFM(), paper: [3]float64{4.1, 21.4, 54}},
		{name: "Streamed + hybrid + buf + switch", kind: fmRow, cfg: bench.ConfigBufSwitch(), paper: [3]float64{6.8, 21.8, 127}},
		{name: "Streamed + hybrid + buf + switch + flow", kind: fmRow, cfg: fullSwitch, paper: [3]float64{6.9, 21.7, 127}},
		{name: "Streamed + all DMA", kind: fmRow, cfg: bench.ConfigAllDMAVestigial(), paper: [3]float64{7.5, 33.0, 162}},
		{name: "Myrinet API (myri_cmd_send_imm())", kind: apiRow, api: myriapi.SendImm, paper: [3]float64{105, 23.9, 4400}},
		{name: "Myrinet API (myri_cmd_send())", kind: apiRow, api: myriapi.SendDMA, paper: [3]float64{121, 23.9, 6900}},
	}
}

// rowByName returns the named Table 4 row.
func rowByName(name string) rowSpec {
	for _, r := range table4Rows() {
		if r.name == name {
			return r
		}
	}
	panic("perfbench: no Table 4 row " + name)
}

// sizes is the row's payload sweep under opt.
func (r rowSpec) sizes(opt bench.Options) []int {
	if r.kind == apiRow {
		return opt.APISizes
	}
	return opt.Sizes
}

// cells returns the fitted t0 (us), r_inf and n1/2 as Table 4 prints them.
func cells(f metrics.Fit) [3]float64 {
	return [3]float64{f.T0.Microseconds(), f.RInf, f.NHalf}
}

// errPct is the mean relative error of rows' cells against the paper's.
func errPct(sim, paper [][3]float64) float64 {
	var sum float64
	var n int
	for i := range sim {
		for j := 0; j < 3; j++ {
			sum += math.Abs(sim[i][j]-paper[i][j]) / paper[i][j]
			n++
		}
	}
	return 100 * sum / float64(n)
}

// parsePaperCell reads a paper cell as bench.Table4 prints it; "~4.4K"
// is read as 4400.
func parsePaperCell(s string) (float64, error) {
	s = strings.TrimPrefix(s, "~")
	mult := 1.0
	if t, ok := strings.CutSuffix(s, "K"); ok {
		s, mult = t, 1000
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("paper cell %q: %w", s, err)
	}
	return v * mult, nil
}

// stack is one composed two-node measurement simulation.
type stack struct {
	k     *sim.Kernel
	fab   *myrinet.Fabric
	buses []*sbus.Bus
	devs  []*lanai.Device
	lcps  []*lcp.LCP
	eps   []*core.Endpoint
	// measure runs the stream and returns its bandwidth point.
	measure func() (metrics.BWPoint, error)
}

// buildTimes accumulates the host time spent building composed stacks.
type buildTimes struct {
	fabric, cluster time.Duration
}

// crossbar times the two-node fabric build bench's pair makers use.
func (bt *buildTimes) crossbar(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
	t := time.Now()
	f := myrinet.NewCrossbar(k, p, 2, 8)
	bt.fabric += time.Since(t)
	return f
}

// buildStack builds the stack bench.Table4 measures for row r at one
// payload size, in the same construction order.
func buildStack(r rowSpec, size, packets int, p *cost.Params, bt *buildTimes) *stack {
	t := time.Now()
	k := sim.NewKernel()
	fab := bt.crossbar(k, p)
	st := &stack{k: k, fab: fab}
	switch r.kind {
	case lanaiRow:
		qc := lanai.DefaultQueues(size + p.FMHeaderBytes)
		b0 := sbus.New(k, p, "sbus0")
		d0 := lanai.New(k, p, b0, fab, 0, qc)
		b1 := sbus.New(k, p, "sbus1")
		d1 := lanai.New(k, p, b1, fab, 1, qc)
		var last sim.Time
		got := 0
		l0 := lcp.Start(d0, lcp.Options{Streamed: r.streamed, Source: lcp.Synthetic, SynthDst: 1})
		l1 := lcp.Start(d1, lcp.Options{Streamed: r.streamed, Source: lcp.Synthetic, SynthDst: 0,
			OnReceive: func(*myrinet.Packet) {
				got++
				last = k.Now()
			}})
		st.buses, st.devs, st.lcps = []*sbus.Bus{b0, b1}, []*lanai.Device{d0, d1}, []*lcp.LCP{l0, l1}
		st.measure = func() (metrics.BWPoint, error) {
			d0.SetSynthetic(packets, size)
			if err := k.RunAll(); err != nil {
				return metrics.BWPoint{}, err
			}
			if got != packets {
				return metrics.BWPoint{}, fmt.Errorf("lanai stream delivered %d/%d", got, packets)
			}
			elapsed := sim.Duration(last)
			return metrics.BWPoint{N: size, PerPacket: elapsed / sim.Duration(packets),
				MBps: metrics.Bandwidth(size, packets, elapsed)}, nil
		}
	case fmRow:
		c := cluster.NewFMOnFabric(k, p, fab, r.cfg.WithFrame(size))
		st.buses, st.devs, st.lcps, st.eps = c.Buses, c.Devs, c.LCPs, c.EPs
		st.measure = streamMeasure(metrics.Pair{
			A: c.EPs[0], B: c.EPs[1],
			StartA: func(app func()) { c.CPUs[0].Start(app) },
			StartB: func(app func()) { c.CPUs[1].Start(app) },
			Run:    c.Run,
		}, size, packets)
	case apiRow:
		cfg := myriapi.DefaultConfig(r.api)
		hw := cluster.NewHardwareOnFabric(k, p, fab, cfg.Queues(p))
		var eps []*myriapi.Endpoint
		for i := range hw.Devs {
			eps = append(eps, myriapi.New(hw.CPUs[i], hw.Devs[i], cfg, p))
			st.lcps = append(st.lcps, lcp.Start(hw.Devs[i], cfg.LCPOptions(p)))
		}
		st.buses, st.devs = hw.Buses, hw.Devs
		st.measure = streamMeasure(metrics.Pair{
			A: eps[0], B: eps[1],
			StartA: func(app func()) { hw.CPUs[0].Start(app) },
			StartB: func(app func()) { hw.CPUs[1].Start(app) },
			Run:    hw.Run,
		}, size, packets)
	}
	bt.cluster += time.Since(t)
	return st
}

func streamMeasure(pair metrics.Pair, size, packets int) func() (metrics.BWPoint, error) {
	return func() (metrics.BWPoint, error) {
		elapsed, bw, err := metrics.Stream(pair, size, packets)
		if err != nil {
			return metrics.BWPoint{}, err
		}
		return metrics.BWPoint{N: size, PerPacket: elapsed / sim.Duration(packets), MBps: bw}, nil
	}
}

// runRow measures row r across its sweep and fits it, passing every
// finished stack to done (nil to discard).
func runRow(r rowSpec, opt bench.Options, p *cost.Params, bt *buildTimes, done func(*stack)) (metrics.Fit, error) {
	var pts []metrics.BWPoint
	for _, size := range r.sizes(opt) {
		st := buildStack(r, size, opt.Packets, p, bt)
		pt, err := st.measure()
		if err != nil {
			return metrics.Fit{}, fmt.Errorf("%s @%dB: %w", r.name, size, err)
		}
		pts = append(pts, pt)
		if done != nil {
			done(st)
		}
	}
	ref := 0.0
	if r.kind == apiRow {
		ref = sbusWriteRef
	}
	return metrics.FitSweep(pts, ref), nil
}

// rowsErrPct fits the given rows by composition and returns their mean
// relative error against the paper, in percent.
func rowsErrPct(rows []rowSpec) (float64, error) {
	opt := table4Options()
	p := cost.Default()
	var sims, paper [][3]float64
	for _, r := range rows {
		f, err := runRow(r, opt, p, &buildTimes{}, nil)
		if err != nil {
			return 0, err
		}
		sims = append(sims, cells(f))
		paper = append(paper, r.paper)
	}
	return errPct(sims, paper), nil
}

// table4Options is the sweep fmbench -experiment table4 runs, on one
// worker.
func table4Options() bench.Options {
	opt := bench.DefaultOptions()
	opt.Workers = 1
	return opt
}

// sweepMessages is the number of stream messages one Table 4 sweep sends.
func sweepMessages(opt bench.Options) int {
	n := 0
	for _, r := range table4Rows() {
		n += len(r.sizes(opt)) * opt.Packets
	}
	return n
}

// sweepSetup builds every stack one Table 4 sweep builds and returns
// the host time the construction took. Each stack is then run empty so
// its control-program processes unwind.
func sweepSetup(opt bench.Options, p *cost.Params) (time.Duration, error) {
	var total time.Duration
	for _, r := range table4Rows() {
		for _, size := range r.sizes(opt) {
			t := time.Now()
			st := buildStack(r, size, opt.Packets, p, &buildTimes{})
			total += time.Since(t)
			if err := st.k.RunAll(); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}
