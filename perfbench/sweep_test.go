package main

import (
	"testing"

	"fm/internal/bench"
	"fm/internal/cost"
	"fm/internal/myriapi"
)

// TestComposedStacksMatchBenchHelpers checks one point of each composed
// stack kind against the bench helper that measures the same stack.
func TestComposedStacksMatchBenchHelpers(t *testing.T) {
	p := cost.Default()
	const size, packets = 128, 500
	point := func(r rowSpec) (float64, int64) {
		pt, err := buildStack(r, size, packets, p, &buildTimes{}).measure()
		if err != nil {
			t.Fatal(err)
		}
		return pt.MBps, int64(pt.PerPacket)
	}

	full := rowByName("Streamed + hybrid + buf + flow")
	elapsed, bw := bench.FMStream(full.cfg, p, size, packets)
	if gotBW, gotPer := point(full); gotBW != bw || gotPer != int64(elapsed)/packets {
		t.Errorf("full FM: composed %v MB/s %d ps/packet, bench.FMStream %v MB/s %d", gotBW, gotPer, bw, int64(elapsed)/packets)
	}

	lan := bench.LANaiStream(p, true, size, packets)
	if gotBW, gotPer := point(rowByName("Streamed LCP (LANai only)")); gotBW != lan.MBps || gotPer != int64(lan.PerPacket) {
		t.Errorf("streamed LANai: composed %v MB/s %d, bench.LANaiStream %v MB/s %d", gotBW, gotPer, lan.MBps, int64(lan.PerPacket))
	}

	elapsed, bw = bench.APIStream(myriapi.SendImm, p, size, packets)
	if gotBW, gotPer := point(rowByName("Myrinet API (myri_cmd_send_imm())")); gotBW != bw || gotPer != int64(elapsed)/packets {
		t.Errorf("API imm: composed %v MB/s %d, bench.APIStream %v MB/s %d", gotBW, gotPer, bw, int64(elapsed)/packets)
	}
}

func TestParsePaperCell(t *testing.T) {
	for s, want := range map[string]float64{"4.2": 4.2, "~4.4K": 4400, "~6.9K": 6900, "315": 315} {
		if got, err := parsePaperCell(s); err != nil || got != want {
			t.Errorf("parsePaperCell(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parsePaperCell("n/a"); err == nil {
		t.Error("parsePaperCell accepted n/a")
	}
}
