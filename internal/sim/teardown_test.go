package sim_test

import (
	"strings"
	"testing"

	"fm/internal/cost"
	"fm/internal/lanai"
	"fm/internal/lcp"
	"fm/internal/myrinet"
	"fm/internal/sbus"
	"fm/internal/sim"
)

// TestTeardownTakesNoLCPStep: two LANai cards stream synthetic frames,
// and mid-stream a process reads the receiver's count and panics. The
// run must return that failure. Teardown then drains the events still
// queued, the control programs' pending steps among them, and those
// steps must do nothing: no frame is sent or received after the
// failure, and the panicked process's coroutine is back on the idle
// list.
func TestTeardownTakesNoLCPStep(t *testing.T) {
	// Put one coroutine on the idle list for the process below.
	warm := sim.NewKernel()
	warm.Spawn("warm", func(*sim.Proc) {})
	if err := warm.RunAll(); err != nil {
		t.Fatal(err)
	}
	idleBase := sim.IdleCoros()

	const frames, size = 1000, 128
	p := cost.Default()
	k := sim.NewKernel()
	fab := myrinet.NewCrossbar(k, p, 2, 8)
	qc := lanai.DefaultQueues(size + p.FMHeaderBytes)
	d0 := lanai.New(k, p, sbus.New(k, p, "sbus0"), fab, 0, qc)
	d1 := lanai.New(k, p, sbus.New(k, p, "sbus1"), fab, 1, qc)
	received := 0
	lcp.Start(d0, lcp.Options{Streamed: true, Source: lcp.Synthetic, SynthDst: 1})
	lcp.Start(d1, lcp.Options{Streamed: true, Source: lcp.Synthetic, SynthDst: 0,
		OnReceive: func(*myrinet.Packet) { received++ }})
	d0.SetSynthetic(frames, size)

	var seen int
	var sent0, sent1 uint64
	k.Spawn("observer", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		seen = received
		sent0, sent1 = d0.Stats().Sent, d1.Stats().Sent
		panic("observer boom")
	})
	err := k.RunAll()
	if err == nil || !strings.Contains(err.Error(), `process "observer" panicked: observer boom`) {
		t.Fatalf("RunAll = %v, want the observer's failure", err)
	}
	if seen == 0 || seen >= frames {
		t.Fatalf("observer saw %d of %d frames, want a point mid-stream", seen, frames)
	}
	if received != seen || d0.Stats().Sent != sent0 || d1.Stats().Sent != sent1 {
		t.Errorf("teardown moved frames: received %d -> %d, sent %d/%d -> %d/%d",
			seen, received, sent0, sent1, d0.Stats().Sent, d1.Stats().Sent)
	}
	if n := sim.IdleCoros(); n != idleBase {
		t.Errorf("%d idle coroutines after the run, want %d", n, idleBase)
	}
}
