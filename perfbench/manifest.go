package main

import (
	"encoding/json"
	"io"
)

// The manifest is BENCHMARK.json: the benchmark's command, workloads and
// metric tables, generated from the tables the program reports from so
// names and units cannot drift apart (manifest_test.go checks the
// committed file).

// runSeconds is the measurement time of one run.
const runSeconds = 30

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

func bound(v float64) *float64 { return &v }

// endToEnd are the end-to-end metrics with the share of the parent's
// median by which each may worsen before a change counts as a
// regression.
var endToEnd = []manifestMetric{
	{"wall_s", "s", "lower", bound(0.25)},
	{"cpu_s", "s", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
	{"msgs_per_s", "1/s", "higher", bound(0.25)},
	{"delivered_pct", "%", "higher", bound(0.01)},
	{"table4_err_pct", "%", "lower", bound(0.05)},
}

// perLayer are the traced run's metrics, in report order.
var perLayer = []manifestMetric{
	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.shard_busy_max_s", Unit: "s", Better: "lower"},
	{Name: "sim.shard_busy_min_s", Unit: "s", Better: "lower"},
	{Name: "sim.barrier_wait_s", Unit: "s", Better: "lower"},
	{Name: "sim.windows", Unit: "count", Better: "lower"},
	{Name: "sim.cross_posts", Unit: "count", Better: "lower"},
	{Name: "myrinet.self_s", Unit: "s", Better: "lower"},
	{Name: "myrinet.fabric_build_s", Unit: "s", Better: "lower"},
	{Name: "myrinet.packets", Unit: "count", Better: "lower"},
	{Name: "myrinet.wire_bytes", Unit: "bytes", Better: "lower"},
	{Name: "myrinet.payload_per_wire", Unit: "ratio", Better: "higher"},
	{Name: "myrinet.acks_per_data", Unit: "ratio", Better: "lower"},
	{Name: "myrinet.port_util_max", Unit: "ratio", Better: "lower"},
	{Name: "lanai.self_s", Unit: "s", Better: "lower"},
	{Name: "lanai.dma_pkts_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "lanai.net_stalls", Unit: "count", Better: "lower"},
	{Name: "lcp.self_s", Unit: "s", Better: "lower"},
	{Name: "lcp.loops_per_pkt", Unit: "ratio", Better: "lower"},
	{Name: "lcp.idle_wakes", Unit: "count", Better: "lower"},
	{Name: "ring.self_s", Unit: "s", Better: "lower"},
	{Name: "sbus.self_s", Unit: "s", Better: "lower"},
	{Name: "sbus.pio_bytes", Unit: "bytes", Better: "lower"},
	{Name: "sbus.dma_bytes", Unit: "bytes", Better: "lower"},
	{Name: "sbus.util_mean", Unit: "ratio", Better: "lower"},
	{Name: "host.self_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.sent", Unit: "count", Better: "lower"},
	{Name: "core.send_blocks", Unit: "count", Better: "lower"},
	{Name: "core.acks_sent", Unit: "count", Better: "lower"},
	{Name: "core.rejects", Unit: "count", Better: "lower"},
	{Name: "core.retransmits", Unit: "count", Better: "lower"},
	{Name: "core.duplicates", Unit: "count", Better: "lower"},
	{Name: "cluster.self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.build_s", Unit: "s", Better: "lower"},
	{Name: "workload.self_s", Unit: "s", Better: "lower"},
	{Name: "workload.prep_s", Unit: "s", Better: "lower"},
	{Name: "workload.sim_elapsed_us", Unit: "us", Better: "lower"},
	{Name: "workload.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "workload.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "workload.lat_p999_us", Unit: "us", Better: "lower"},
	{Name: "workload.lat_count", Unit: "count", Better: "higher"},
	{Name: "workload.sat_lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "workload.sat_lat_count", Unit: "count", Better: "higher"},
	{Name: "stats.self_s", Unit: "s", Better: "lower"},
	{Name: "metrics.self_s", Unit: "s", Better: "lower"},
	{Name: "other.self_s", Unit: "s", Better: "lower"},
	{Name: "runtime.self_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func manifest() manifestFile {
	m := manifestFile{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	return m
}

func writeManifest(w io.Writer) error {
	b, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
