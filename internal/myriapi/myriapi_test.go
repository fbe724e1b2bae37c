package myriapi

import (
	"bytes"
	"strings"
	"testing"

	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/myrinet"
)

func apiPair(v Variant) (metrics.Pair, *Cluster) {
	c := NewCluster(2, DefaultConfig(v), cost.Default())
	return metrics.Pair{
		A:      c.EPs[0],
		B:      c.EPs[1],
		StartA: func(app func()) { c.CPUs[0].Start(app) },
		StartB: func(app func()) { c.CPUs[1].Start(app) },
		Run:    c.Run,
	}, c
}

func TestAPIDeliversInOrder(t *testing.T) {
	c := NewCluster(2, DefaultConfig(SendImm), cost.Default())
	const n = 60
	var order []int
	c.Start(1, func(ep *Endpoint) {
		ep.RegisterHandler(0, func(src int, p []byte) { order = append(order, int(p[0])) })
		for len(order) < n {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	c.Start(0, func(ep *Endpoint) {
		for i := 0; i < n; i++ {
			if err := ep.Send(1, 0, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, order[:i+1])
		}
	}
}

// TestAPIOrderPerSourceAcrossPeers: a sender numbers its frames across
// all its peers, so a receiver sees each source's seqs rise with gaps.
// Node 0 alternates between nodes 1 and 2; each must get its messages
// in send order, with no out-of-order panic.
func TestAPIOrderPerSourceAcrossPeers(t *testing.T) {
	c := NewCluster(3, DefaultConfig(SendImm), cost.Default())
	const n = 20
	got := make([][]int, 3)
	for dst := 1; dst <= 2; dst++ {
		c.Start(dst, func(ep *Endpoint) {
			ep.RegisterHandler(0, func(src int, p []byte) { got[dst] = append(got[dst], int(p[0])) })
			for len(got[dst]) < n {
				ep.WaitIncoming()
				ep.Extract()
			}
		})
	}
	c.Start(0, func(ep *Endpoint) {
		for i := 0; i < 2*n; i++ {
			if err := ep.Send(1+i%2, 0, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for dst := 1; dst <= 2; dst++ {
		for j, v := range got[dst] {
			if want := 2*j + dst - 1; v != want {
				t.Fatalf("node %d message %d = %d, want %d (got %v)", dst, j, v, want, got[dst])
			}
		}
	}
}

// TestAPIOutOfOrderPanics: the order check still fires on a frame whose
// seq does not rise past the last one delivered from its source. Node 1
// receives seqs 1 and 2 from node 0, then a forged seq-1 frame.
func TestAPIOutOfOrderPanics(t *testing.T) {
	c := NewCluster(2, DefaultConfig(SendImm), cost.Default())
	c.Start(1, func(ep *Endpoint) {
		delivered := 0
		ep.RegisterHandler(0, func(int, []byte) { delivered++ })
		for delivered < 2 {
			ep.WaitIncoming()
			ep.Extract()
		}
		forged := ep.dev.Fab.NewPacket()
		forged.Src, forged.Dst, forged.Type, forged.Seq = 0, 1, myrinet.APIMessage, 1
		ep.dev.HostRecvQ.Push(forged)
		ep.Extract()
	})
	c.Start(0, func(ep *Endpoint) {
		for i := 0; i < 2; i++ {
			if err := ep.Send(1, 0, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	err := c.Run()
	if err == nil || !strings.Contains(err.Error(), `process "host1" panicked: myriapi: out-of-order delivery from 0: seq 1 after 2`) {
		t.Fatalf("Run = %v, want an out-of-order panic naming the forged seq", err)
	}
}

func TestAPIPayloadIntegrityLargeMessage(t *testing.T) {
	c := NewCluster(2, DefaultConfig(SendDMA), cost.Default())
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i ^ (i >> 7))
	}
	var got []byte
	c.Start(1, func(ep *Endpoint) {
		ep.RegisterHandler(3, func(src int, p []byte) { got = append([]byte(nil), p...) })
		for got == nil {
			ep.WaitIncoming()
			ep.Extract()
		}
	})
	c.Start(0, func(ep *Endpoint) {
		if err := ep.Send(1, 3, payload); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("4KB payload corrupted")
	}
}

func TestAPIMaxMessageEnforced(t *testing.T) {
	c := NewCluster(2, DefaultConfig(SendImm), cost.Default())
	c.Start(0, func(ep *Endpoint) {
		if err := ep.Send(1, 0, make([]byte, 4097)); err == nil {
			t.Error("expected error above MaxMessage")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAPILatencyOrdersOfMagnitudeAboveFM: the core Figure 9 claim. The
// API's one-way latency for short messages sits near 100 us where FM
// sits near 25 us... in fact the gap must be large.
func TestAPILatencyIsHigh(t *testing.T) {
	pair, _ := apiPair(SendImm)
	lat, err := metrics.PingPong(pair, 16, 20)
	if err != nil {
		t.Fatal(err)
	}
	us := lat.Microseconds()
	if us < 80 || us > 200 {
		t.Errorf("API one-way latency = %.1f us, expected ~100 (80-200)", us)
	}
}

// TestAPIDMAVariantSlowerAtFixedCost: myri_cmd_send has higher startup
// than myri_cmd_send_imm (121 vs 105 us in Table 4).
func TestAPIDMAVariantSlowerAtFixedCost(t *testing.T) {
	imm, _ := apiPair(SendImm)
	dma, _ := apiPair(SendDMA)
	latImm, err := metrics.PingPong(imm, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	latDMA, err := metrics.PingPong(dma, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	if latDMA <= latImm {
		t.Errorf("DMA variant (%.1f us) should be slower than imm (%.1f us) for short messages",
			latDMA.Microseconds(), latImm.Microseconds())
	}
}

// TestAPIBandwidthRecoversAtLargeMessages: despite terrible short-message
// performance, the API reaches double-digit MB/s at its maximum message
// size (Figure 9's bandwidth shape).
func TestAPIBandwidthRecovers(t *testing.T) {
	pair, _ := apiPair(SendImm)
	_, bwSmall, err := metrics.Stream(pair, 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	pair2, _ := apiPair(SendImm)
	_, bwBig, err := metrics.Stream(pair2, 4096, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bwSmall > 1.5 {
		t.Errorf("API at 64B delivers %.2f MB/s, should be under ~1", bwSmall)
	}
	if bwBig < 8 {
		t.Errorf("API at 4KB delivers %.2f MB/s, should recover past 8", bwBig)
	}
}
