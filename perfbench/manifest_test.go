package main

import (
	"bytes"
	"os"
	"sort"
	"testing"
	"time"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
	"fm/internal/workload"
)

// TestManifestMatchesCommittedFile pins BENCHMARK.json at the checkout
// root to the tables the program reports from.
func TestManifestMatchesCommittedFile(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want.Bytes()) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: python3 perfbench/run.py --manifest > BENCHMARK.json")
	}
}

func names(ms []manifestMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReportedMetricsMatchManifest checks both modes report exactly the
// manifest's metrics, with the manifest's units.
func TestReportedMetricsMatchManifest(t *testing.T) {
	fake := &workloadDef{
		name:     "fake",
		procs:    1,
		attempts: func(seeds) int { return 1 },
		call: func(seeds) (callResult, error) {
			return callResult{span: span{setup: time.Millisecond, wall: time.Second, cpu: time.Second},
				attempted: 10, delivered: 10, fp: "x"}, nil
		},
		fidelity: func() (float64, error) { return 1, nil },
	}
	var out bytes.Buffer
	res := measure(fake, seeds{}, time.Nanosecond, &out)
	if !res.Correct || res.Attempted != 10 || res.Failed != 0 {
		t.Fatalf("measure = %+v", res)
	}
	if got, want := keys(res.Metrics), names(endToEnd); !equal(got, want) {
		t.Fatalf("end-to-end metrics %v, manifest %v", got, want)
	}
	for _, m := range endToEnd {
		if res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("%s unit %q, manifest %q", m.Name, res.Metrics[m.Name].Unit, m.Unit)
		}
	}

	layers := layerMetrics(&counters{}, map[string]float64{"sim": 1, "bench": 2}, callResult{}, callResult{})
	if got, want := keys(layers), names(perLayer); !equal(got, want) {
		t.Fatalf("per-layer metrics %v, manifest %v", got, want)
	}
	for _, m := range perLayer {
		if layers[m.Name].Unit != m.Unit {
			t.Errorf("%s unit %q, manifest %q", m.Name, layers[m.Name].Unit, m.Unit)
		}
	}
	if v := layers["other.self_s"].Value; v != 2 {
		t.Errorf("other.self_s = %v, want the unnamed module's 2 s", v)
	}
}

// TestFailedUnitCountsAllItsMessages checks a panicking unit is booked
// as failed rather than aborting the run.
func TestFailedUnitCountsAllItsMessages(t *testing.T) {
	bad := &workloadDef{
		name:     "bad",
		attempts: func(seeds) int { return 7 },
		call:     func(seeds) (callResult, error) { panic("undelivered frame") },
		fidelity: func() (float64, error) { return 1, nil },
	}
	var out bytes.Buffer
	res := measure(bad, seeds{}, time.Nanosecond, &out)
	if res.Correct || res.Attempted != 7 || res.Failed != 7 {
		t.Fatalf("measure = %+v, want 7 attempted, 7 failed, incorrect", res)
	}
	if v := res.Metrics["delivered_pct"].Value; v != 0 {
		t.Fatalf("delivered_pct = %v, want 0", v)
	}
}

// TestProbeIsSimulationNeutral checks wrapping Build leaves a driver's
// simulated results unchanged.
func TestProbeIsSimulationNeutral(t *testing.T) {
	p, cfg, pat := cost.Default(), core.DefaultConfig(), workload.AllToAll{Rounds: 1}
	plain := workload.DriveFM(workload.ClosSpec(16), cfg, p, pat, msgSize)
	pb := &probe{}
	probed := workload.DriveFM(pb.wrap(workload.ClosSpec(16)), cfg, p, pat, msgSize)
	var a, b fingerprint
	batchPrint(&a, &plain, 0)
	batchPrint(&b, &probed, 0)
	if a.sum() != b.sum() {
		t.Fatalf("probe changed the simulation:\n%s\nvs\n%s", a.b.String(), b.b.String())
	}
	if pb.first.IsZero() || len(pb.kernels) != 1 || pb.simEvents() == 0 {
		t.Fatalf("probe saw kernels %d, first %v, events %d", len(pb.kernels), pb.first, pb.simEvents())
	}
}

// TestComposedDrivesMatchPublicDrivers checks the traced runs'
// compositions reproduce the public drivers exactly on small clusters.
func TestComposedDrivesMatchPublicDrivers(t *testing.T) {
	p, cfg := cost.Default(), core.DefaultConfig()
	spec, pat := workload.ClosSpec(16), workload.AllToAll{Rounds: 2}

	want := workload.DriveFM(spec, cfg, p, pat, msgSize)
	fp := buildFM(spec, pat)
	got := &fp.res
	for id := range fp.seqs {
		id := id
		fp.c.Start(id, func(ep *core.Endpoint) {
			fmRank(ep, fp.seqs[id], fp.expect[id], msgSize, fp.buf(id), &got.Latency)
		})
	}
	if err := fp.c.Run(); err != nil {
		t.Fatal(err)
	}
	got.Elapsed = sim.Duration(fp.c.K.Now())
	var a, b fingerprint
	batchPrint(&a, &want, 0)
	batchPrint(&b, got, 0)
	if a.sum() != b.sum() {
		t.Fatalf("composed DriveFM differs:\n%s\nvs\n%s", a.b.String(), b.b.String())
	}

	src := soakSource(seeds{poisson: 3, base: 4}, soakLoads[1])
	src.Horizon = sim.Millisecond
	wantSoak := workload.SoakDriveFM(spec, cfg, p, src, msgSize,
		workload.SoakOptions{Width: soakWidth, Mode: workload.TerminateHorizon})
	gotSoak, err := soakComposed(spec, src, &probe{}, &counters{})
	if err != nil {
		t.Fatal(err)
	}
	var c, d fingerprint
	soakPrint(&c, 0, &wantSoak, 0)
	soakPrint(&d, 0, &gotSoak, 0)
	if c.sum() != d.sum() {
		t.Fatalf("composed SoakDriveFM differs:\n%s\nvs\n%s", c.b.String(), d.b.String())
	}
}
