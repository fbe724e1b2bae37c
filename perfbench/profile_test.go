package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/workload"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"fm/internal/sim.(*Kernel).drive":            "sim",
		"fm/internal/workload.DriveFM.func1":         "workload",
		"fm/internal/ring.(*Ring[go.shape.int]).Pop": "ring",
		"fm/internal/myrinet/sub.F":                  "myrinet",
		"runtime.mallocgc":                           "",
		"main.main":                                  "",
		"fm/perfbench.run":                           "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldInnermostInternalFrameWins(t *testing.T) {
	got := fold([]sample{
		// runtime frames inside core's call are core's cost.
		{stack: []string{"runtime.mallocgc", "fm/internal/core.(*Endpoint).Send", "fm/internal/sim.(*Kernel).drive"}, nanos: 30e6},
		{stack: []string{"fm/internal/myrinet.(*Packet).Seal", "fm/internal/lanai.(*Device).Inject", "fm/internal/sim.(*Kernel).drive"}, nanos: 10e6},
		{stack: []string{"fm/internal/sim.(*Kernel).drive", "main.main"}, nanos: 20e6},
	})
	want := map[string]float64{"core": 0.03, "myrinet": 0.01, "sim": 0.02}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("fold[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestFoldRuntimeOnlyStacksGoToRuntime(t *testing.T) {
	got := fold([]sample{
		{stack: []string{"runtime.gcBgMarkWorker"}, nanos: 10e6},
		{stack: []string{"runtime.mcall", "main.measure"}, nanos: 10e6},
		{stack: nil, nanos: 10e6},
	})
	if len(got) != 1 || math.Abs(got[runtimeLayer]-0.03) > 1e-12 {
		t.Fatalf("fold = %v, want all 0.03 s in %s", got, runtimeLayer)
	}
}

func TestSharesSumToHundred(t *testing.T) {
	self := fold([]sample{
		{stack: []string{"fm/internal/sim.x"}, nanos: 7e6},
		{stack: []string{"fm/internal/core.x"}, nanos: 13e6},
		{stack: []string{"runtime.x"}, nanos: 3e6},
		{stack: []string{"fm/internal/stats.x"}, nanos: 1e6},
	})
	var sum float64
	for _, v := range shares(self) {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
	if s := shares(map[string]float64{}); len(s) != 0 {
		t.Fatalf("shares of an empty fold = %v", s)
	}
}

// TestDecodeRealProfile profiles a small simulation with runtime/pprof
// and checks the decoder recovers samples whose fold lands in the
// simulator's modules.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		workload.DriveFM(workload.ClosSpec(16), core.DefaultConfig(), cost.Default(), workload.AllToAll{Rounds: 1}, 112)
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile recorded no samples")
	}
	self := fold(samples)
	var internal float64
	for layer, v := range self {
		if layer != runtimeLayer {
			internal += v
		}
	}
	if internal == 0 {
		t.Fatalf("no sample attributed to an fm/internal module: %v", self)
	}
}
