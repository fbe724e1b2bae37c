// Halo: a 1-D Jacobi stencil with halo exchange — the classic
// tightly-coupled workload the paper's introduction says workstation
// clusters could not previously support ("parallel computing on
// workstation clusters has largely been limited to coarse-grained
// applications", Section 1). Per-iteration communication is two frames of
// a few hundred bytes per node: FM's short-message regime.
//
// Each of 8 nodes owns a slice of a 1-D rod and relaxes the heat
// equation; every iteration it exchanges one-cell halos with its ring
// neighbors over FM, then the result is checked against a serial
// computation of the same system.
//
// The communication structure — who talks to whom, each iteration — is
// not hand-rolled: it comes from the workload layer's Neighbor pattern
// (internal/workload), the ring-shift/halo-exchange generator the
// `patterns` experiment also drives. The example walks the pattern's
// per-rank send list round by round and fills in the physics.
//
// Run with: go run ./examples/halo
package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/mpi"
	"fm/internal/sim"
	"fm/internal/workload"
)

const (
	nodes    = 8
	cells    = 512 // total interior cells
	local    = cells / nodes
	iters    = 50
	hHalo    = 0
	hGroup   = 1
	haloSize = 13                  // side byte + iteration + float64 value
	cpuCost  = 60 * sim.Nanosecond // per-cell update on a 1995 SuperSPARC
)

// pattern is the workload-layer description of this application's
// traffic: iters rounds of non-wrapping neighbor exchange (the boundary
// ranks have a fixed boundary cell instead of a partner on that side).
var pattern = workload.Neighbor{Rounds: iters, Wrap: false, Bytes: haloSize}

func encode(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

func decode(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// serial computes the reference solution.
func serial() []float64 {
	cur := initial()
	next := make([]float64, cells+2)
	for it := 0; it < iters; it++ {
		next[0], next[cells+1] = cur[0], cur[cells+1] // fixed boundaries
		for i := 1; i <= cells; i++ {
			next[i] = 0.5*cur[i] + 0.25*(cur[i-1]+cur[i+1])
		}
		cur, next = next, cur
	}
	return cur
}

// initial builds the rod with fixed hot/cold boundary cells.
func initial() []float64 {
	u := make([]float64, cells+2)
	u[0] = 100 // hot end (boundary, never updated)
	for i := 1; i <= cells; i++ {
		u[i] = float64(i % 7)
	}
	return u
}

func main() {
	c := cluster.NewFM(nodes, core.DefaultConfig(), cost.Default())
	result := make([]float64, cells+2)
	var elapsed sim.Time

	full := initial()
	for rank := 0; rank < nodes; rank++ {
		rank := rank
		c.Start(rank, func(ep *core.Endpoint) {
			comm := mpi.NewWorld(ep, nodes, hGroup)
			left, right := rank-1, rank+1

			// Local slice with halo cells at [0] and [local+1].
			u := make([]float64, local+2)
			next := make([]float64, local+2)
			copy(u, full[rank*local:rank*local+local+2])

			// Halo arrivals, keyed by iteration: a fast neighbor may send
			// its next-iteration halo before this node finishes waiting
			// for the current one, so values are buffered per iteration
			// rather than stored in bare flags.
			fromLeft := make(map[uint32]float64)
			fromRight := make(map[uint32]float64)
			ep.RegisterHandler(hHalo, func(src int, payload []byte) {
				it := binary.LittleEndian.Uint32(payload[1:])
				v := decode(payload[5:])
				if payload[0] == 'L' { // sender's leftmost cell -> our right halo
					fromRight[it] = v
				} else { // sender's rightmost cell -> our left halo
					fromLeft[it] = v
				}
			})
			halo := func(side byte, it int, v float64) []byte {
				msg := make([]byte, 5, haloSize)
				msg[0] = side
				binary.LittleEndian.PutUint32(msg[1:], uint32(it))
				return append(msg, encode(v)...)
			}

			// The pattern's send list is round-major with a constant
			// per-round count per rank (2 in the interior, 1 at the
			// boundaries), so each iteration consumes one slice of it.
			sends := pattern.Gen(rank, nodes)
			perRound := len(sends) / iters

			for it := 0; it < iters; it++ {
				// Exchange halos with the pattern's neighbors for this
				// round (boundary nodes keep their fixed boundary cell
				// instead): a send to the left neighbor carries our
				// leftmost cell, a send to the right our rightmost.
				for _, s := range sends[it*perRound : (it+1)*perRound] {
					msg := halo('R', it, u[local])
					if s.Dst == left {
						msg = halo('L', it, u[1])
					}
					if len(msg) != s.Size {
						panic(fmt.Sprintf("halo message is %dB, pattern declares %dB", len(msg), s.Size))
					}
					ep.Send(s.Dst, hHalo, msg)
				}
				for {
					l, okL := fromLeft[uint32(it)]
					r, okR := fromRight[uint32(it)]
					if (okL || left < 0) && (okR || right >= nodes) {
						if okL {
							u[0] = l
							delete(fromLeft, uint32(it))
						}
						if okR {
							u[local+1] = r
							delete(fromRight, uint32(it))
						}
						break
					}
					ep.WaitIncoming()
					ep.Extract()
				}

				// Relax the interior, charging the simulated CPU.
				for i := 1; i <= local; i++ {
					next[i] = 0.5*u[i] + 0.25*(u[i-1]+u[i+1])
				}
				ep.CPU().Advance(sim.Duration(local) * cpuCost)
				copy(u[1:local+1], next[1:local+1])

				// Iteration barrier keeps halo generations separate.
				comm.Barrier()
			}

			copy(result[rank*local+1:], u[1:local+1])
			if rank == 0 {
				elapsed = ep.Now()
			}
			for ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	if err := c.Run(); err != nil {
		panic(err)
	}

	ref := serial()
	maxErr := 0.0
	for i := 1; i <= cells; i++ {
		if e := math.Abs(result[i] - ref[i]); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("%d nodes x %d cells, %d Jacobi iterations with FM halo exchange\n",
		nodes, local, iters)
	fmt.Printf("traffic structure: workload pattern %q, %d messages per run\n",
		pattern.Name(), workload.Total(pattern, nodes))
	fmt.Printf("max deviation from serial solution: %.3e (must be ~0)\n", maxErr)
	fmt.Printf("virtual time: %v (%.1f us/iteration including 2 halos + barrier)\n",
		elapsed, elapsed.Microseconds()/iters)
	st := c.Fab.Stats()
	fmt.Printf("network: %d packets, avg payload %.0f B — the short-message regime FM targets\n",
		st.Packets, float64(st.PayloadBytes)/float64(st.Packets))
	if maxErr > 1e-12 {
		panic("parallel result diverged from serial reference")
	}
}
