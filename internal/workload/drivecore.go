package workload

import (
	"encoding/binary"

	"fm/internal/core"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
)

// This file is the drive core every driver shares: the pregeneration
// prologue (pattern expansion, totals, route hints, hop accounting),
// the latency-stamp wire format, the per-shard result merge, and the
// per-rank FM drive body. Every batch drive runs on a shard group, one
// shard being the single kernel; the drive bodies in driver.go (raw,
// closed-loop FM, MPI) and soak.go (open-loop FM) differ only in which
// stack level they run and how they terminate — everything else lives
// here exactly once.

// sendSize resolves one send's payload size against the driver default.
func sendSize(s Send, def int) int {
	if s.Size > 0 {
		return s.Size
	}
	return def
}

// sendSeq is one rank's send sequence: a materialized slice for plain
// patterns, or an index-addressed view over a StreamingPattern that
// computes each send on demand. Drivers iterate it by index, so the
// streamed form never holds more than one Send at a time.
type sendSeq struct {
	list []Send
	sp   StreamingPattern // non-nil selects the streamed form
	src  int
	n    int
	ln   int
}

// Len returns the number of sends in the sequence.
func (q sendSeq) Len() int { return q.ln }

// At returns the j-th send.
func (q sendSeq) At(j int) Send {
	if q.sp != nil {
		return q.sp.SendAt(q.src, q.n, j)
	}
	return q.list[j]
}

// genSeqs binds every rank's send sequence and accumulates the shared
// totals: message count, payload bytes, per-rank receive counts, and
// the buffer size the drivers need. Streaming patterns are walked
// without materializing; everything else expands through Gen exactly
// as before.
func genSeqs(pat Pattern, n, def int) (sends []sendSeq, messages int, bytes int64, expect []int, maxSize int) {
	sends = make([]sendSeq, n)
	expect = make([]int, n)
	maxSize = def
	sp, _ := pat.(StreamingPattern)
	for src := 0; src < n; src++ {
		if sp != nil {
			sends[src] = sendSeq{sp: sp, src: src, n: n, ln: sp.RankLen(src, n)}
		} else {
			list := pat.Gen(src, n)
			sends[src] = sendSeq{list: list, ln: len(list)}
		}
		q := sends[src]
		messages += q.Len()
		for j := 0; j < q.Len(); j++ {
			sz := sendSize(q.At(j), def)
			bytes += int64(sz)
			expect[q.At(j).Dst]++
			if sz > maxSize {
				maxSize = sz
			}
		}
	}
	return sends, messages, bytes, expect, maxSize
}

// meanHops computes the pattern's mean switch-crossing count on the
// fabric: pure routing-table arithmetic, no virtual time.
func meanHops(f *myrinet.Fabric, sends []sendSeq, messages int) float64 {
	if messages == 0 {
		return 0
	}
	hops := 0
	for src := range sends {
		q := sends[src]
		for j := 0; j < q.Len(); j++ {
			hops += f.Hops(src, q.At(j).Dst)
		}
	}
	return float64(hops) / float64(messages)
}

// prepare is the prologue every driver runs before simulating: bind
// the pattern's per-rank sequences, fill the result's totals, hint the
// route caches of every fabric replica, and account topological hops.
// The returned sequences are in canonical rank order; expect is the
// per-rank receive count.
func prepare(spec FabricSpec, pat Pattern, size int, fabs ...*myrinet.Fabric) (res Result, sends []sendSeq, expect []int, maxSize int) {
	n := fabs[0].Nodes()
	res = Result{Pattern: pat.Name(), Fabric: spec.Name}
	var messages int
	sends, messages, res.PayloadBytes, expect, maxSize = genSeqs(pat, n, size)
	res.Messages = messages
	hint := spec.RouteHint(n, messages)
	for _, f := range fabs {
		f.HintRoutes(hint)
	}
	res.MeanHops = meanHops(fabs[0], sends, messages)
	return res, sends, expect, maxSize
}

// mergeLatency folds per-shard histograms into the result in shard
// order (bucket merging is order-independent, but a fixed order keeps
// the fingerprint canonical).
func mergeLatency(res *Result, hists []stats.Histogram) {
	for i := range hists {
		res.Latency.Merge(&hists[i])
	}
}

// shardStats returns a drive's per-shard counters, nil for a one-shard
// run.
func shardStats(g *sim.ShardGroup) []sim.ShardStats {
	if g.Shards() == 1 {
		return nil
	}
	return g.Stats()
}

// stamp writes a virtual instant into the payload head so the receiver
// can compute per-message latency; payloads shorter than the timestamp
// skip it (the recorded distribution then only covers the stampable
// messages). Closed-loop drivers stamp the send instant; the open-loop
// soak driver stamps the scheduled arrival instant, so the receiver's
// reading includes source-queue sojourn.
func stamp(buf []byte, now sim.Time) {
	if len(buf) >= 8 {
		binary.LittleEndian.PutUint64(buf, uint64(now))
	}
}

func stampedAt(payload []byte) (sim.Time, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return sim.Time(binary.LittleEndian.Uint64(payload)), true
}

// waitUntil charges the rank's CPU until the send's earliest injection
// instant.
func waitUntil(ep *core.Endpoint, at sim.Duration) {
	if d := at - sim.Duration(ep.Now()); d > 0 {
		ep.CPU().Advance(d)
	}
}

// fmRank is the per-rank body of the closed-loop FM drive (healthy,
// sharded or faulted alike): register handler 0 counting deliveries
// and recording stamped latency into lat, issue the send list paced by
// each send's At instant while draining incoming traffic, then extract
// until the expected share has arrived and nothing is outstanding.
//
// last records the rank's final delivery instant (the drive's
// LastDelivery). A settleAt past zero keeps the rank polling after its
// own traffic completes, so frames bounced its way late (a standalone
// ack, a strand released at a recovery) are requeued and resent rather
// than rotting in the receive queue while their original target spins
// forever; an empty fault timeline leaves it zero, so a healthy run
// spends no virtual time on it.
func fmRank(ep *core.Endpoint, sends sendSeq, expect, size int, buf []byte,
	lat *stats.Histogram, last *sim.Time, settleAt sim.Time) {
	got := 0
	ep.RegisterHandler(0, func(src int, payload []byte) {
		got++
		if now := ep.Now(); now > *last {
			*last = now
		}
		if at, ok := stampedAt(payload); ok {
			lat.Record(ep.Now().Sub(at))
		}
	})
	for j := 0; j < sends.Len(); j++ {
		s := sends.At(j)
		if s.At > 0 {
			waitUntil(ep, s.At)
		}
		msg := buf[:sendSize(s, size)]
		stamp(msg, ep.Now())
		if err := ep.Send(s.Dst, 0, msg); err != nil {
			panic(err)
		}
		ep.Extract() // keep draining while sending
	}
	for got < expect || ep.Outstanding() > 0 {
		ep.WaitIncoming()
		ep.Extract()
	}
	for ep.Now() < settleAt {
		ep.CPU().Advance(settleQuantum)
		ep.Extract()
	}
}
