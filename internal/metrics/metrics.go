// Package metrics implements the paper's measurement methodology
// (Section 4.1): one-way latency from 50 ping-pong round trips, bandwidth
// from the time to stream a fixed packet count, and the derived
// performance metrics of Table 2 — r_inf (peak bandwidth), t0 (startup
// overhead), and n1/2 (the half-power packet size).
//
// Bandwidths are in MB/s with 1 MB = 2^20 bytes, as the paper specifies,
// and message length always refers to payload (header overhead is
// included in the measured time but not the byte count).
package metrics

import (
	"fmt"

	"fm/internal/sim"
)

// PaperPingPongRounds is the paper's latency measurement length.
const PaperPingPongRounds = 50

// PaperStreamPackets is the paper's bandwidth measurement length.
const PaperStreamPackets = 65535

// MiB is the paper's megabyte (2^20 bytes).
const MiB = 1 << 20

// Messenger is the layer-neutral surface both FM and the Myrinet API
// comparator expose to the drivers.
type Messenger interface {
	NodeID() int
	RegisterHandler(id int, h func(src int, payload []byte))
	Send(dst, handler int, payload []byte) error
	Extract() int
	WaitIncoming()
	// Now is the node's virtual time, which the measurements read.
	Now() sim.Time
}

// Pair binds two endpoints to their host processes and the simulation
// run loop, hiding the cluster wiring from the drivers.
type Pair struct {
	A, B   Messenger
	StartA func(app func())
	StartB func(app func())
	Run    func() error
}

// PingPong measures one-way latency: a size-byte message bounces between
// A and B for the given number of round trips; the result is total time
// divided by 2*rounds, matching the paper's methodology. Time is measured
// "from the FM_send() call until the (essentially empty) handler returns"
// (Section 4.3).
func PingPong(p Pair, size, rounds int) (sim.Duration, error) {
	const h = 0
	var start, end sim.Time
	got := 0

	p.StartB(func() {
		echoed := 0
		p.B.RegisterHandler(h, func(src int, payload []byte) {
			echoed++
			if err := p.B.Send(src, h, payload); err != nil {
				panic(err)
			}
		})
		for echoed < rounds {
			p.B.WaitIncoming()
			p.B.Extract()
		}
	})
	p.StartA(func() {
		p.A.RegisterHandler(h, func(int, []byte) { got++ })
		buf := make([]byte, size)
		start = p.A.Now()
		for i := 0; i < rounds; i++ {
			if err := p.A.Send(p.B.NodeID(), h, buf); err != nil {
				panic(err)
			}
			target := i + 1
			for got < target {
				p.A.WaitIncoming()
				p.A.Extract()
			}
		}
		end = p.A.Now()
	})
	if err := p.Run(); err != nil {
		return 0, err
	}
	if got != rounds {
		return 0, fmt.Errorf("metrics: ping-pong completed %d/%d rounds", got, rounds)
	}
	return end.Sub(start) / sim.Duration(2*rounds), nil
}

// Stream measures bandwidth: A sends `packets` messages of `size` bytes
// as fast as the layer allows; the elapsed time runs to the last
// handler return at B. Returns the elapsed time and the payload
// bandwidth in MB/s.
func Stream(p Pair, size, packets int) (sim.Duration, float64, error) {
	const h = 0
	var start, end sim.Time
	got := 0

	p.StartB(func() {
		p.B.RegisterHandler(h, func(int, []byte) {
			got++
			if got == packets {
				end = p.B.Now()
			}
		})
		for got < packets {
			p.B.WaitIncoming()
			p.B.Extract()
		}
		p.B.Extract() // flush trailing protocol work (acks)
	})
	p.StartA(func() {
		buf := make([]byte, size)
		start = p.A.Now()
		for i := 0; i < packets; i++ {
			if err := p.A.Send(p.B.NodeID(), h, buf); err != nil {
				panic(err)
			}
		}
	})
	if err := p.Run(); err != nil {
		return 0, 0, err
	}
	if got != packets {
		return 0, 0, fmt.Errorf("metrics: stream delivered %d/%d packets", got, packets)
	}
	elapsed := end.Sub(start)
	return elapsed, Bandwidth(size, packets, elapsed), nil
}

// Bandwidth converts a transfer into MB/s (1 MB = 2^20).
func Bandwidth(size, packets int, elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(size) * float64(packets) / MiB / elapsed.Seconds()
}
