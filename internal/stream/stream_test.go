package stream

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"testing"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/sim"
)

const h = 5 // handler id used by the mux in tests

// transfer pushes data from node 0 to node 1 over one stream and returns
// what node 1 read.
func transfer(t *testing.T, cfg core.Config, data []byte, chunk int) []byte {
	t.Helper()
	c := cluster.NewFM(2, cfg, cost.Default())
	var got []byte
	c.Start(1, func(ep *core.Endpoint) {
		conn := NewMux(ep, h).Open(0, 1)
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
	})
	c.Start(0, func(ep *core.Endpoint) {
		conn := NewMux(ep, h).Open(1, 1)
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := conn.Write(data[off:end]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		if err := conn.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		// Keep pumping acks until the layer quiesces.
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSmallTransfer(t *testing.T) {
	data := []byte("hello fast messages")
	got := transfer(t, core.DefaultConfig(), data, 1000)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 100<<10) // 100 KiB across ~800 frames
	rng.Read(data)
	got := transfer(t, core.DefaultConfig(), data, 8192)
	if len(got) != len(data) {
		t.Fatalf("len = %d, want %d", len(got), len(data))
	}
	if sha256.Sum256(got) != sha256.Sum256(data) {
		t.Fatal("payload hash mismatch")
	}
}

func TestEmptyWriteAndImmediateClose(t *testing.T) {
	got := transfer(t, core.DefaultConfig(), nil, 64)
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

// TestReorderingUnderRejection: a slow consumer with aggressive rejection
// forces return-to-sender retransmissions, which reorder FM delivery; the
// stream must still reconstruct the exact byte sequence. This is the
// paper's "delivery order is not preserved" drawback being repaired one
// layer up.
func TestReorderingUnderRejection(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CheckInvariants = true
	cfg.HostRecvSlots = 24
	cfg.RejectThreshold = 6
	cfg.DrainLimit = 2
	cfg.WindowSlots = 48
	cfg.RetryDelay = 15 * sim.Microsecond

	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 24<<10)
	rng.Read(data)

	c := cluster.NewFM(2, cfg, cost.Default())
	var got []byte
	sawOOO := false
	var rejects uint64
	c.Start(1, func(ep *core.Endpoint) {
		conn := NewMux(ep, h).Open(0, 1)
		buf := make([]byte, 1024)
		for {
			n, err := conn.Read(buf)
			got = append(got, buf[:n]...)
			if len(conn.ooo) > 0 {
				sawOOO = true
			}
			// Model a busy receiver so the queue backs up.
			ep.CPU().Advance(25 * sim.Microsecond)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
		rejects = ep.Stats().RejectsSent
	})
	c.Start(0, func(ep *core.Endpoint) {
		conn := NewMux(ep, h).Open(1, 1)
		if _, err := conn.Write(data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := conn.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted under rejection: %d/%d bytes", len(got), len(data))
	}
	if rejects == 0 {
		t.Log("warning: no rejects triggered; reordering path unexercised this run")
	}
	_ = sawOOO // reordering is configuration-dependent; correctness is what we assert
}

// TestBidirectionalStreams: both directions of one stream id at once.
func TestBidirectionalStreams(t *testing.T) {
	c := cluster.NewFM(2, core.DefaultConfig(), cost.Default())
	msgA, msgB := bytes.Repeat([]byte("a"), 5000), bytes.Repeat([]byte("b"), 3000)
	var gotA, gotB []byte
	run := func(me int, out []byte, in *[]byte) func(ep *core.Endpoint) {
		return func(ep *core.Endpoint) {
			conn := NewMux(ep, h).Open(1-me, 9)
			if _, err := conn.Write(out); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := conn.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			b, err := io.ReadAll(conn)
			if err != nil {
				t.Errorf("readall: %v", err)
			}
			*in = b
			for ep.Outstanding() > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		}
	}
	c.Start(0, run(0, msgA, &gotB))
	c.Start(1, run(1, msgB, &gotA))
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, msgA) || !bytes.Equal(gotB, msgB) {
		t.Fatalf("bidirectional mismatch: %d/%d and %d/%d",
			len(gotA), len(msgA), len(gotB), len(msgB))
	}
}

// TestMultipleStreamsInterleaved: two stream ids share one mux and one
// handler without crosstalk.
func TestMultipleStreamsInterleaved(t *testing.T) {
	c := cluster.NewFM(2, core.DefaultConfig(), cost.Default())
	d1 := bytes.Repeat([]byte{0x11}, 4000)
	d2 := bytes.Repeat([]byte{0x22}, 6000)
	var got1, got2 []byte
	c.Start(1, func(ep *core.Endpoint) {
		m := NewMux(ep, h)
		c1, c2 := m.Open(0, 1), m.Open(0, 2)
		b1, err := io.ReadAll(c1)
		if err != nil {
			t.Errorf("read 1: %v", err)
		}
		b2, err := io.ReadAll(c2)
		if err != nil {
			t.Errorf("read 2: %v", err)
		}
		got1, got2 = b1, b2
	})
	c.Start(0, func(ep *core.Endpoint) {
		m := NewMux(ep, h)
		c1, c2 := m.Open(1, 1), m.Open(1, 2)
		// Interleave writes between the two streams.
		for off := 0; off < 4000; off += 500 {
			if _, err := c1.Write(d1[off : off+500]); err != nil {
				t.Errorf("w1: %v", err)
			}
			if _, err := c2.Write(d2[off : off+500]); err != nil {
				t.Errorf("w2: %v", err)
			}
		}
		if _, err := c2.Write(d2[4000:]); err != nil {
			t.Errorf("w2 tail: %v", err)
		}
		c1.Close()
		c2.Close()
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, d1) || !bytes.Equal(got2, d2) {
		t.Fatal("stream crosstalk or loss")
	}
}

// TestRandomChunkSizesProperty: arbitrary write chunkings all reassemble.
func TestRandomChunkSizesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(20<<10)
		data := make([]byte, n)
		rng.Read(data)
		chunk := 1 + rng.Intn(4096)
		got := transfer(t, core.DefaultConfig(), data, chunk)
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d (n=%d chunk=%d): mismatch", trial, n, chunk)
		}
	}
}
