package bench

import (
	"fmt"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myriapi"
)

// Layer-stack configurations in the order Table 4 lists them, exported
// for benchmarks and external tooling.

// ConfigHybridVestigial is the Fig. 4 "streamed + hybrid" layer.
func ConfigHybridVestigial() core.Config { return core.VestigialConfig(core.Hybrid) }

// ConfigAllDMAVestigial is the Fig. 4 "streamed + all DMA" layer.
func ConfigAllDMAVestigial() core.Config { return core.VestigialConfig(core.AllDMA) }

// ConfigBufMgmt is the Fig. 7 "+ buffer management" layer.
func ConfigBufMgmt() core.Config {
	c := core.DefaultConfig()
	c.FlowControl = false
	c.PiggybackAcks = false
	c.RejectThreshold = 0
	return c
}

// ConfigBufSwitch is the Fig. 7 "+ buffer management + switch()" layer.
func ConfigBufSwitch() core.Config {
	c := ConfigBufMgmt()
	c.Interpret = true
	return c
}

// ConfigFullFM is the complete FM 1.0 layer (Fig. 8/9).
func ConfigFullFM() core.Config { return core.DefaultConfig() }

func cfgFullSwitch() core.Config {
	c := core.DefaultConfig()
	c.Interpret = true
	return c
}

// sbusWriteRef is the SBus write bandwidth the paper substitutes for the
// API's unmeasurable r_inf (footnote 3): 23.9 MB/s.
const sbusWriteRef = 23.9

// Fig3 regenerates Figure 3: LANai-to-LANai latency and bandwidth for
// the baseline and streamed LCP loops against the theoretical peak.
func Fig3(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "fig3", Title: "LANai to LANai Performance"}
	r.Curves = []Curve{
		lanaiCurve("Baseline", false, p, opt.Sizes, opt, true),
		lanaiCurve("Streamed", true, p, opt.Sizes, opt, true),
		theoreticalCurve(p, opt.Sizes),
	}
	r.Notes = append(r.Notes,
		"paper fits: baseline t0=4.2us n1/2=315B; streamed t0=3.5us n1/2=249B; both r_inf=76.3MB/s")
	return r
}

// Fig4 regenerates Figure 4: minimal host-to-host performance under the
// two SBus management architectures, with the streamed LANai-level curve
// as the reference.
func Fig4(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "fig4", Title: "Minimal host to host performance"}
	r.Curves = []Curve{
		hostCurve("Streamed + hybrid", fmMaker(ConfigHybridVestigial(), p), opt.Sizes, opt, true, 0),
		hostCurve("Streamed + all DMA", fmMaker(ConfigAllDMAVestigial(), p), opt.Sizes, opt, true, 0),
		lanaiCurve("Streamed", true, p, opt.Sizes, opt, true),
	}
	r.Notes = append(r.Notes,
		"paper fits: hybrid t0=3.5us r_inf=21.2 n1/2=44B; all-DMA t0=7.5us r_inf=33.0 n1/2=162B",
		"shape claim: hybrid wins short messages, all-DMA wins large; crossover a few hundred bytes")
	return r
}

// Fig7 regenerates Figure 7: the cost of buffer management and of
// simulated packet interpretation (switch()) in the LCP.
func Fig7(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "fig7", Title: "Host to Host performance with buffer management"}
	r.Curves = []Curve{
		hostCurve("Streamed + hybrid", fmMaker(ConfigHybridVestigial(), p), opt.Sizes, opt, true, 0),
		hostCurve("Streamed + hybrid + buff. mgmt.", fmMaker(ConfigBufMgmt(), p), opt.Sizes, opt, true, 0),
		hostCurve("Streamed + hybrid + buff. mgmt. + switch()", fmMaker(ConfigBufSwitch(), p), opt.Sizes, opt, true, 0),
	}
	r.Notes = append(r.Notes,
		"paper fits: +buf t0=3.8us r_inf=21.9 n1/2=53B; +buf+switch t0=6.8us r_inf=21.8 n1/2=127B",
		"shape claim: buffer management costs little; LCP interpretation more than doubles n1/2")
	return r
}

// Fig8 regenerates Figure 8: adding return-to-sender flow control to the
// buffer-managed layer.
func Fig8(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "fig8", Title: "Fast Messages messaging layer performance"}
	r.Curves = []Curve{
		hostCurve("Streamed + hybrid + buff. mgmt.", fmMaker(ConfigBufMgmt(), p), opt.Sizes, opt, true, 0),
		hostCurve("Streamed + hybrid + buff. mgmt. + flow ctrl.", fmMaker(ConfigFullFM(), p), opt.Sizes, opt, true, 0),
	}
	r.Notes = append(r.Notes,
		"paper fits: full FM t0=4.1us r_inf=21.4 n1/2=54B — 'a negligible difference'")
	return r
}

// Fig9 regenerates Figure 9: FM against both Myrinet API interfaces. The
// API sweep extends beyond 600B to locate its n1/2 (thousands of bytes).
func Fig9(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "fig9", Title: "Fast Messages vs. Myricom's API"}
	r.Curves = []Curve{
		hostCurve("Fast Messages", fmMaker(ConfigFullFM(), p), opt.Sizes, opt, true, 0),
		hostCurve("Myrinet API (myri_cmd_send_imm())", apiMaker(myriapi.SendImm, p), opt.APISizes, opt, true, sbusWriteRef),
		hostCurve("Myrinet API (myri_cmd_send())", apiMaker(myriapi.SendDMA, p), opt.APISizes, opt, true, sbusWriteRef),
	}
	r.Notes = append(r.Notes,
		"paper: API-imm t0=105us n1/2~4.4KB; API-DMA t0=121us n1/2~6.9KB; FM n1/2=54B",
		"API n1/2 is computed against the SBus write bandwidth (23.9 MB/s), per the paper's footnote 3")
	return r
}

// Table4 regenerates Table 4: t0, r_inf and n1/2 for every layer
// configuration.
func Table4(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "table4", Title: "Summary of FM 1.0 performance data"}

	// Each row holds its name, the paper's t0 (us), r_inf (MB/s) and
	// n1/2 (bytes) for side-by-side output, and the curve it measures.
	type entry struct {
		name, t0, rInf, nHalf string
		curve                 func() Curve
	}
	entries := []entry{
		{"Baseline LCP (LANai only)", "4.2", "76.3", "315", func() Curve {
			return lanaiCurve("baseline", false, p, opt.Sizes, serial(opt), false)
		}},
		{"Streamed LCP (LANai only)", "3.5", "76.3", "249", func() Curve {
			return lanaiCurve("streamed", true, p, opt.Sizes, serial(opt), false)
		}},
		{"Streamed + hybrid", "3.5", "21.2", "44", func() Curve {
			return hostCurve("hybrid", fmMaker(ConfigHybridVestigial(), p), opt.Sizes, serial(opt), false, 0)
		}},
		{"Streamed + hybrid + buf", "3.8", "21.9", "53", func() Curve {
			return hostCurve("buf", fmMaker(ConfigBufMgmt(), p), opt.Sizes, serial(opt), false, 0)
		}},
		{"Streamed + hybrid + buf + flow", "4.1", "21.4", "54", func() Curve {
			return hostCurve("flow", fmMaker(ConfigFullFM(), p), opt.Sizes, serial(opt), false, 0)
		}},
		{"Streamed + hybrid + buf + switch", "6.8", "21.8", "127", func() Curve {
			return hostCurve("switch", fmMaker(ConfigBufSwitch(), p), opt.Sizes, serial(opt), false, 0)
		}},
		{"Streamed + hybrid + buf + switch + flow", "6.9", "21.7", "127", func() Curve {
			return hostCurve("switchflow", fmMaker(cfgFullSwitch(), p), opt.Sizes, serial(opt), false, 0)
		}},
		{"Streamed + all DMA", "7.5", "33.0", "162", func() Curve {
			return hostCurve("alldma", fmMaker(ConfigAllDMAVestigial(), p), opt.Sizes, serial(opt), false, 0)
		}},
		{"Myrinet API (myri_cmd_send_imm())", "105", "23.9", "~4.4K", func() Curve {
			return hostCurve("apiimm", apiMaker(myriapi.SendImm, p), opt.APISizes, serial(opt), false, sbusWriteRef)
		}},
		{"Myrinet API (myri_cmd_send())", "121", "23.9", "~6.9K", func() Curve {
			return hostCurve("apidma", apiMaker(myriapi.SendDMA, p), opt.APISizes, serial(opt), false, sbusWriteRef)
		}},
	}

	r.Rows = mapN(opt.Workers, len(entries), func(i int) Row {
		e := entries[i]
		c := e.curve()
		return Row{
			Name:    e.name,
			T0us:    c.Fit.T0.Microseconds(),
			RInf:    c.Fit.RInf,
			NHalf:   c.Fit.NHalf,
			Extrap:  c.Fit.NHalfExtrapolated,
			PaperT0: e.t0,
			PaperR:  e.rInf,
			PaperN:  e.nHalf,
		}
	})
	return r
}

// serial returns opt with harness parallelism disabled, for use inside an
// already-parallel job.
func serial(opt Options) Options {
	opt.Workers = 1
	return opt
}

// Headline regenerates the numbers Sections 1 and 5 quote for FM 1.0.
func Headline(opt Options) *Report {
	p := cost.Default()
	r := &Report{ID: "headline", Title: "FM 1.0 headline numbers"}

	var lat16, lat128 float64
	var bwCurve Curve
	jobs := []func(){
		func() {
			lat, err := metrics.PingPong(fmMaker(ConfigFullFM(), p)(16), 16, opt.Rounds)
			if err != nil {
				panic(err)
			}
			lat16 = lat.Microseconds()
		},
		func() {
			lat, err := metrics.PingPong(fmMaker(ConfigFullFM(), p)(128), 128, opt.Rounds)
			if err != nil {
				panic(err)
			}
			lat128 = lat.Microseconds()
		},
		func() {
			bwCurve = hostCurve("FM", fmMaker(ConfigFullFM(), p), opt.Sizes, serial(opt), false, 0)
		},
	}
	runParallel(opt.Workers, jobs)

	bw128 := metrics.Interp(bwCurve.BW, 128)
	bw512 := metrics.Interp(bwCurve.BW, 512)
	nh := bwCurve.Fit.NHalf
	bwAtNh := metrics.Interp(bwCurve.BW, int(nh+0.5))

	r.Curves = []Curve{bwCurve}
	r.KVs = []KV{
		{"one-way latency, 4-word message (us)", fmt.Sprintf("%.1f", lat16), "25"},
		{"one-way latency, 128B packet (us)", fmt.Sprintf("%.1f", lat128), "32"},
		{"bandwidth @ 128B (MB/s)", fmt.Sprintf("%.1f", bw128), "16.2"},
		{"bandwidth @ 512B (MB/s)", fmt.Sprintf("%.1f", bw512), "19.6"},
		{"n1/2 (bytes)", fmt.Sprintf("%.0f", nh), "54"},
		{"bandwidth @ n1/2 (MB/s)", fmt.Sprintf("%.1f", bwAtNh), "10.7"},
	}
	return r
}
