package mpi_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/mpi"
	"fm/internal/sim"
)

const handler = 0

// run builds an n-node FM cluster, starts app(rank, comm) on every
// node with a world communicator, and runs the simulation to
// quiescence.
func run(t *testing.T, n int, app func(rank int, c *mpi.Comm)) {
	t.Helper()
	runEP(t, n, func(rank int, _ *core.Endpoint, c *mpi.Comm) { app(rank, c) })
}

// runEP is run with each node's FM endpoint passed along, for apps that
// read the virtual clock or charge CPU time.
func runEP(t *testing.T, n int, app func(rank int, ep *core.Endpoint, c *mpi.Comm)) {
	t.Helper()
	cl := cluster.NewFM(n, core.DefaultConfig(), cost.Default())
	for id := 0; id < n; id++ {
		id := id
		cl.Start(id, func(ep *core.Endpoint) {
			app(id, ep, mpi.NewWorld(ep, n, handler))
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRecvDeadlock: each rank posts a blocking receive from the other
// before sending anything, the textbook MPI deadlock. The run must come
// back with an error naming both ranks' processes, not nil.
func TestRecvDeadlock(t *testing.T) {
	cl := cluster.NewFM(2, core.DefaultConfig(), cost.Default())
	for id := 0; id < 2; id++ {
		cl.Start(id, func(ep *core.Endpoint) {
			c := mpi.NewWorld(ep, 2, handler)
			c.Recv(1-id, 7)
			c.Send(1-id, 7, []byte("never sent"))
		})
	}
	err := cl.Run()
	if err == nil || !strings.Contains(err.Error(), `deadlock at `) ||
		!strings.HasSuffix(err.Error(), `wait on a signal: "host0", "host1"`) {
		t.Fatalf("Run = %v, want a deadlock naming both ranks", err)
	}
}

// Unexpected messages arriving before the receive is posted must queue
// and match later, in any tag order the receiver asks for.
func TestUnexpectedBeforePost(t *testing.T) {
	runEP(t, 2, func(rank int, ep *core.Endpoint, c *mpi.Comm) {
		switch rank {
		case 0:
			for tag := 1; tag <= 3; tag++ {
				c.Send(1, tag, []byte(fmt.Sprintf("msg-%d", tag)))
			}
		case 1:
			// Let all three arrive unexpected before any post.
			ep.CPU().Advance(2 * sim.Millisecond)
			for _, tag := range []int{2, 3, 1} { // out of arrival order
				data, st := c.Recv(0, tag)
				if want := fmt.Sprintf("msg-%d", tag); string(data) != want {
					t.Errorf("tag %d: got %q, want %q", tag, data, want)
				}
				if st.Tag != tag || st.Source != 0 || st.Count != len(data) {
					t.Errorf("tag %d: bad status %+v", tag, st)
				}
			}
		}
	})
}

// AnySource and AnyTag wildcards match any application message and
// report the actual envelope in the status.
func TestWildcards(t *testing.T) {
	runEP(t, 3, func(rank int, ep *core.Endpoint, c *mpi.Comm) {
		switch rank {
		case 1:
			c.Send(0, 7, []byte("from-1"))
		case 2:
			ep.CPU().Advance(1 * sim.Millisecond)
			c.Send(0, 9, []byte("from-2"))
		case 0:
			data, st := c.Recv(mpi.AnySource, mpi.AnyTag)
			if st.Source != 1 || st.Tag != 7 || string(data) != "from-1" {
				t.Errorf("first wildcard recv: %+v %q", st, data)
			}
			data, st = c.Recv(mpi.AnySource, mpi.AnyTag)
			if st.Source != 2 || st.Tag != 9 || string(data) != "from-2" {
				t.Errorf("second wildcard recv: %+v %q", st, data)
			}
		}
	})
}

// A wildcard receive must not capture internal collective traffic, and
// Irecv refuses the negative tags the collectives use internally, so an
// application cannot take a collective's message either.
func TestWildcardSkipsInternalTags(t *testing.T) {
	run(t, 2, func(rank int, c *mpi.Comm) {
		if rank == 0 {
			// Barrier traffic (internal tags) first, then a real message.
			c.Barrier()
			c.Send(1, 3, []byte("user"))
		} else {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "tags must be >= 0 (got -3)") {
						t.Errorf("Irecv(0, -3) panicked with %q, want the tag rule", msg)
					}
				}()
				c.Irecv(0, -3) // the first collective's internal tag
			}()
			c.Barrier()
			data, st := c.Recv(mpi.AnySource, mpi.AnyTag)
			if st.Tag != 3 || string(data) != "user" {
				t.Errorf("wildcard matched wrong message: %+v %q", st, data)
			}
		}
	})
}

// Nonblocking receives complete in message-arrival order, not post
// order.
func TestOutOfOrderCompletion(t *testing.T) {
	runEP(t, 2, func(rank int, ep *core.Endpoint, c *mpi.Comm) {
		switch rank {
		case 0:
			c.Send(1, 8, []byte("late-post-tag"))
			ep.CPU().Advance(5 * sim.Millisecond)
			c.Send(1, 7, []byte("early-post-tag"))
		case 1:
			r7 := c.Irecv(0, 7)
			r8 := c.Irecv(0, 8)
			// The tag-8 message is on the wire; tag 7 is 5ms behind it.
			c.Wait(r8)
			if r7.Done() {
				t.Error("r7 complete before its message was sent")
			}
			data, st := c.Wait(r7)
			if string(data) != "early-post-tag" || st.Tag != 7 {
				t.Errorf("r7: %+v %q", st, data)
			}
		}
	})
}

// Same source, same tag: messages are received in send order even
// though the transport may reorder frames (non-overtaking).
func TestNonOvertaking(t *testing.T) {
	const k = 32
	run(t, 2, func(rank int, c *mpi.Comm) {
		switch rank {
		case 0:
			for i := 0; i < k; i++ {
				c.Send(1, 5, []byte{byte(i)})
			}
		case 1:
			for i := 0; i < k; i++ {
				data, _ := c.Recv(0, 5)
				if len(data) != 1 || data[0] != byte(i) {
					t.Fatalf("message %d: got %v", i, data)
				}
			}
		}
	})
}

// Messages larger than one FM frame segment and reassemble; contents
// survive byte-for-byte.
func TestLargeMessageSegmentation(t *testing.T) {
	big := make([]byte, 10_000) // ~93 frames at 128B payload
	for i := range big {
		big[i] = byte(i * 31)
	}
	run(t, 2, func(rank int, c *mpi.Comm) {
		switch rank {
		case 0:
			c.Send(1, 1, big)
		case 1:
			data, st := c.Recv(0, 1)
			if !bytes.Equal(data, big) {
				t.Errorf("large message corrupted (%d bytes, want %d)", len(data), len(big))
			}
			if st.Count != len(big) {
				t.Errorf("status count %d, want %d", st.Count, len(big))
			}
		}
	})
}

// Self-sends loop back through the matcher.
func TestSelfSend(t *testing.T) {
	run(t, 2, func(rank int, c *mpi.Comm) {
		req := c.Irecv(rank, 4)
		c.Send(rank, 4, []byte("loopback"))
		data, st := c.Wait(req)
		if string(data) != "loopback" || st.Source != rank {
			t.Errorf("rank %d self-send: %+v %q", rank, st, data)
		}
	})
}

// The collectives produce MPI semantics on the world communicator.
func TestCollectives(t *testing.T) {
	const n = 8
	run(t, n, func(rank int, c *mpi.Comm) {
		c.Barrier()

		// Bcast from a non-zero root.
		got := c.Bcast(3, []byte(fmt.Sprintf("root-data-%d", rank)))
		if string(got) != "root-data-3" {
			t.Errorf("rank %d bcast: %q", rank, got)
		}

		// Reduce: sum of ranks at root 2.
		sum := c.Reduce(2, []float64{float64(rank)}, mpi.Sum)
		if rank == 2 {
			if want := float64(n * (n - 1) / 2); sum[0] != want {
				t.Errorf("reduce: got %v want %v", sum[0], want)
			}
		} else if sum != nil {
			t.Errorf("rank %d reduce: non-root got %v", rank, sum)
		}

		// Allreduce max.
		all := c.Allreduce([]float64{float64(rank * rank)}, mpi.Max)
		if want := float64((n - 1) * (n - 1)); all[0] != want {
			t.Errorf("rank %d allreduce: got %v want %v", rank, all[0], want)
		}
	})
}

// Split partitions the world into disjoint communicators with
// translated ranks; collectives work within each.
func TestSplit(t *testing.T) {
	const n = 8
	run(t, n, func(rank int, c *mpi.Comm) {
		sub := c.Split(rank%2, -rank) // negative key reverses rank order
		if size := sub.Allreduce([]float64{1}, mpi.Sum)[0]; size != n/2 {
			t.Errorf("rank %d: sub size %v", rank, size)
		}
		// key = -rank sorts descending by world rank: even group
		// {6,4,2,0} -> sub ranks 0..3, odd group {7,5,3,1} likewise.
		wantRank := (n - 1 - rank) / 2
		if sub.Rank() != wantRank {
			t.Errorf("world rank %d: sub rank %d, want %d", rank, sub.Rank(), wantRank)
		}

		// Allreduce within the subgroup: sum of world ranks of members.
		got := sub.Allreduce([]float64{float64(rank)}, mpi.Sum)
		want := 0.0
		for r := rank % 2; r < n; r += 2 {
			want += float64(r)
		}
		if got[0] != want {
			t.Errorf("rank %d subcomm allreduce: got %v want %v", rank, got[0], want)
		}

		// Point-to-point on the subcomm stays inside it.
		if sub.Rank() == 0 {
			sub.Send(n/2-1, 1, []byte{byte(rank % 2)})
		}
		if sub.Rank() == n/2-1 {
			data, st := sub.Recv(0, 1)
			if data[0] != byte(rank%2) || st.Source != 0 {
				t.Errorf("rank %d subcomm recv: %v %+v", rank, data, st)
			}
		}

		// Undefined color joins no group.
		none := c.Split(-1, 0)
		if none != nil {
			t.Errorf("rank %d: negative color produced a communicator", rank)
		}
	})
}

// A parallel-pi smoke test: the layered stack computes the right
// answer with measurable virtual-time cost.
func TestParallelPi(t *testing.T) {
	const n = 4
	const steps = 1 << 12
	run(t, n, func(rank int, c *mpi.Comm) {
		sum := 0.0
		for i := rank; i < steps; i += n {
			x := (float64(i) + 0.5) / steps
			sum += 4.0 / (1.0 + x*x)
		}
		pi := c.Allreduce([]float64{sum / steps}, mpi.Sum)[0]
		if math.Abs(pi-math.Pi) > 1e-6 {
			t.Errorf("rank %d: pi = %v", rank, pi)
		}
	})
}
