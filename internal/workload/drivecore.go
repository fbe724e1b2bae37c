package workload

import (
	"encoding/binary"
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
)

// This file is the drive core every driver shares: the pregeneration
// prologue (pattern expansion, totals, route hints, hop accounting),
// the latency-stamp wire format, the per-shard result merge, and the
// FM drive core (fmDrive): the one cluster prologue, rank body and
// result gathering of every driver above the raw network. Every drive
// runs on a shard group, one shard being the single kernel; the
// drivers in driver.go (raw, closed-loop FM, MPI) and soak.go
// (open-loop FM) differ only in which stack level they run and what
// they observe — everything else lives here exactly once.

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
// messages). The FM and MPI drivers stamp the instant hold returns: a
// send's scheduled At instant, or the send instant of a back-to-back
// send.
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

// fmDrive is the one FM drive core. The closed-loop drive
// (DriveFMFaultsSharded), the open-loop soak (SoakDriveFM) and the MPI
// drive (DriveMPI) all run through it: newFMDrive builds the cluster
// and binds the pattern, the caller books whatever it needs from the
// bound sequences, and run starts a rank body on every node and
// gathers the result.
type fmDrive struct {
	c        *cluster.FM
	sends    []sendSeq
	expect   []int
	size     int // default payload size
	maxSize  int
	slab     []byte // every rank's send buffer, maxSize bytes each
	settleAt sim.Time
}

// newFMDrive builds the FM cluster on `shards` kernels around the
// spec's fabric, installs the fault timeline ws (empty for a healthy
// run) on every fabric replica, runs the prologue, and allocates one
// slab for every rank's send buffer: at scale (the 4096-node sweep)
// per-rank allocations are pure overhead. Every replica installs the
// identical timeline, so toggles fire at the same virtual instants on
// each replica's own kernel and the replicas' routers never disagree.
// The prologue's result goes back to the caller, not into the drive,
// so its latency histogram stays off the heap.
func newFMDrive(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int, ws []myrinet.FaultWindow, shards int) (*fmDrive, Result) {
	c, err := cluster.NewFMShardedFrom(spec.Build, cfg, p, shards)
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", spec.Name, err))
	}
	for _, f := range c.Fabs {
		f.ApplyFaults(ws)
	}
	res, sends, expect, maxSize := prepare(spec, pat, size, c.Fabs...)
	return &fmDrive{c: c, sends: sends, expect: expect, size: size, maxSize: maxSize,
		slab: make([]byte, len(c.EPs)*maxSize), settleAt: settleTime(ws, cfg.RetryDelay)}, res
}

// buf is rank id's send buffer; each rank writes only its own.
func (d *fmDrive) buf(id int) []byte { return d.slab[id*d.maxSize : (id+1)*d.maxSize] }

// run starts body as every node's application, on the shard owning the
// node, runs the cluster to quiescence, and completes the prologue's
// result base. Elapsed is the quiescence instant and LastDelivery the
// latest instant a body returned; the endpoint counters are summed over
// nodes, and the fault counters and stranded frames over fabric
// replicas (each fault event is counted on exactly one replica).
func (d *fmDrive) run(base Result, body func(id int, ep *core.Endpoint) sim.Time) FaultResult {
	c := d.c
	lasts := make([]sim.Time, len(c.EPs))
	for id := range c.EPs {
		c.Start(id, func(ep *core.Endpoint) { lasts[id] = body(id, ep) })
	}
	if err := c.Run(); err != nil {
		panic(err)
	}
	res := FaultResult{Result: base}
	res.Elapsed = sim.Duration(c.Group.Now())
	for _, t := range lasts {
		res.LastDelivery = max(res.LastDelivery, sim.Duration(t))
	}
	res.Shards = shardStats(c.Group)
	for _, ep := range c.EPs {
		mergeCoreStats(&res.Stats, ep.Stats())
	}
	for _, f := range c.Fabs {
		res.Fault.Merge(f.FaultStats())
		res.Stranded += f.PendingStranded()
	}
	return res
}

// hold keeps the rank extracting in settleQuantum steps until its
// clock reaches a send's At instant, calling polled after every
// extract, and returns the instant to stamp into the send. That is At
// itself for a scheduled send, so the receiver's reading includes any
// time the send waited behind the rank's own work (the sojourn an
// open-loop source measures), and the send instant for a back-to-back
// send (At == 0). A holding rank keeps extracting, so a lightly loaded
// receiver's reading reflects service latency and not the gap to its
// own next send.
func hold(ep *core.Endpoint, at sim.Duration, polled func()) sim.Time {
	for sim.Duration(ep.Now()) < at {
		ep.CPU().Advance(min(at-sim.Duration(ep.Now()), settleQuantum))
		ep.Extract()
		polled()
	}
	if at > 0 {
		return sim.Time(at)
	}
	return ep.Now()
}

// noPoll is the after-extract hook of a drive that attributes nothing
// to the instant of an extract.
func noPoll() {}

// fmRank is the one FM rank body. Handler 0 counts deliveries and
// passes each stamped one to deliver with its instant, latency and
// size. The rank issues its sends, each held until its At instant and
// stamped by hold's rule, draining incoming traffic while sending, then
// extracts until its expected share has arrived and nothing is
// outstanding. polled runs after every extract. It returns the rank's
// last delivery instant.
//
// A settle horizon past zero keeps the rank polling after its own
// traffic completes, so frames bounced its way late (a standalone ack,
// a strand released at a recovery) are requeued and resent rather than
// rotting in the receive queue while their original target spins
// forever; an empty fault timeline leaves it zero, so a healthy run
// spends no virtual time on it.
func (d *fmDrive) fmRank(id int, ep *core.Endpoint, deliver func(now sim.Time, lat sim.Duration, bytes int), polled func()) sim.Time {
	sends, expect, buf := d.sends[id], d.expect[id], d.buf(id)
	// The handler's two counters share one heap cell.
	var rx struct {
		got  int
		last sim.Time
	}
	ep.RegisterHandler(0, func(src int, payload []byte) {
		rx.got++
		rx.last = ep.Now()
		if at, ok := stampedAt(payload); ok {
			deliver(rx.last, rx.last.Sub(at), len(payload))
		}
	})
	for j := 0; j < sends.Len(); j++ {
		s := sends.At(j)
		msg := buf[:sendSize(s, d.size)]
		stamp(msg, hold(ep, s.At, polled))
		if err := ep.Send(s.Dst, 0, msg); err != nil {
			panic(err)
		}
		ep.Extract() // keep draining while sending
		polled()
	}
	for rx.got < expect || ep.Outstanding() > 0 {
		ep.WaitIncoming()
		ep.Extract()
		polled()
	}
	for ep.Now() < d.settleAt {
		ep.CPU().Advance(settleQuantum)
		ep.Extract()
		polled()
	}
	return rx.last
}
