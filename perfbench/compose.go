package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
	"fm/internal/workload"
)

// Composed drive bodies for the traced runs. workload.DriveFM and
// workload.SoakDriveFM keep their clusters private, so the traced runs
// rebuild the same cluster with cluster.NewFMFrom and drive it with
// these replicas of the drivers' prologue and per-rank bodies, using
// only the public Endpoint API. The traced run then checks that the
// composition reproduces the public driver's simulated results exactly.

// settleQuantum is the soak ranks' poll-wait step (workload's value).
const settleQuantum = 10 * sim.Microsecond

// seq is one rank's send sequence: a streamed view over a
// StreamingPattern, or the materialized Gen list otherwise.
type seq struct {
	list []workload.Send
	sp   workload.StreamingPattern
	src  int
	n    int
	ln   int
}

func (q seq) at(j int) workload.Send {
	if q.sp != nil {
		return q.sp.SendAt(q.src, q.n, j)
	}
	return q.list[j]
}

func sendSize(s workload.Send, def int) int {
	if s.Size > 0 {
		return s.Size
	}
	return def
}

// prepare is the drivers' prologue: bind every rank's sequence, total
// messages and bytes, count each rank's expected receives, hint the
// route caches and account the mean hop count.
func prepare(spec workload.FabricSpec, pat workload.Pattern, size int, fabs ...*myrinet.Fabric) (res workload.Result, seqs []seq, expect []int, maxSize int) {
	n := fabs[0].Nodes()
	res = workload.Result{Pattern: pat.Name(), Fabric: spec.Name}
	seqs = make([]seq, n)
	expect = make([]int, n)
	maxSize = size
	sp, _ := pat.(workload.StreamingPattern)
	for src := 0; src < n; src++ {
		if sp != nil {
			seqs[src] = seq{sp: sp, src: src, n: n, ln: sp.RankLen(src, n)}
		} else {
			list := pat.Gen(src, n)
			seqs[src] = seq{list: list, ln: len(list)}
		}
		q := seqs[src]
		res.Messages += q.ln
		for j := 0; j < q.ln; j++ {
			s := q.at(j)
			sz := sendSize(s, size)
			res.PayloadBytes += int64(sz)
			expect[s.Dst]++
			if sz > maxSize {
				maxSize = sz
			}
		}
	}
	hint := spec.RouteHint(n, res.Messages)
	for _, f := range fabs {
		f.HintRoutes(hint)
	}
	if res.Messages > 0 {
		hops := 0
		for src, q := range seqs {
			for j := 0; j < q.ln; j++ {
				hops += fabs[0].Hops(src, q.at(j).Dst)
			}
		}
		res.MeanHops = float64(hops) / float64(res.Messages)
	}
	return res, seqs, expect, maxSize
}

// fmPrologue is everything an FM driver builds before its first
// simulated event: the cluster (fabric included) and the per-rank
// sequences, with the host time each took.
type fmPrologue struct {
	c       *cluster.FM
	res     workload.Result
	seqs    []seq
	expect  []int
	maxSize int
	slab    []byte // every rank's send buffer

	build, prep time.Duration
}

// buildFM runs the FM drivers' prologue: cluster.NewFMFrom on the spec,
// then prepare.
func buildFM(spec workload.FabricSpec, pat workload.Pattern) *fmPrologue {
	start := time.Now()
	c := cluster.NewFMFrom(spec.Build, core.DefaultConfig(), cost.Default())
	built := time.Now()
	res, seqs, expect, maxSize := prepare(spec, pat, msgSize, c.Fab)
	fp := &fmPrologue{c: c, res: res, seqs: seqs, expect: expect, maxSize: maxSize,
		slab: make([]byte, len(seqs)*maxSize)}
	fp.build, fp.prep = built.Sub(start), time.Since(built)
	return fp
}

// buf is rank id's send buffer.
func (fp *fmPrologue) buf(id int) []byte {
	return fp.slab[id*fp.maxSize : (id+1)*fp.maxSize]
}

func stamp(buf []byte, at sim.Time) {
	if len(buf) >= 8 {
		binary.LittleEndian.PutUint64(buf, uint64(at))
	}
}

func stampedAt(payload []byte) (sim.Time, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return sim.Time(binary.LittleEndian.Uint64(payload)), true
}

// fmRank is the closed-loop rank body of workload.DriveFM: send the
// whole sequence while draining, then extract until the expected share
// has arrived and nothing is outstanding.
func fmRank(ep *core.Endpoint, q seq, expect, size int, buf []byte, lat *stats.Histogram) {
	got := 0
	ep.RegisterHandler(0, func(src int, payload []byte) {
		got++
		if at, ok := stampedAt(payload); ok {
			lat.Record(ep.Now().Sub(at))
		}
	})
	for j := 0; j < q.ln; j++ {
		s := q.at(j)
		if s.At > 0 {
			if d := s.At - sim.Duration(ep.Now()); d > 0 {
				ep.CPU().Advance(d)
			}
		}
		msg := buf[:sendSize(s, size)]
		stamp(msg, ep.Now())
		if err := ep.Send(s.Dst, 0, msg); err != nil {
			panic(err)
		}
		ep.Extract()
	}
	for got < expect || ep.Outstanding() > 0 {
		ep.WaitIncoming()
		ep.Extract()
	}
}

// soakRank is the open-loop rank body of workload.SoakDriveFM on a
// healthy fabric: stamp the scheduled arrival, poll-wait in
// settleQuantum steps between arrivals, and attribute retransmits to
// the window they happen in.
func soakRank(ep *core.Endpoint, q seq, expect, size int, buf []byte, series *stats.Series) {
	got := 0
	var seenRetrans uint64
	poll := func() {
		if r := ep.Stats().Retransmits; r > seenRetrans {
			series.Retransmits(ep.Now(), r-seenRetrans)
			seenRetrans = r
		}
	}
	ep.RegisterHandler(0, func(src int, payload []byte) {
		got++
		if at, ok := stampedAt(payload); ok {
			series.Delivery(ep.Now(), ep.Now().Sub(at), len(payload))
		}
	})
	for j := 0; j < q.ln; j++ {
		s := q.at(j)
		for sim.Duration(ep.Now()) < s.At {
			d := s.At - sim.Duration(ep.Now())
			if d > settleQuantum {
				d = settleQuantum
			}
			ep.CPU().Advance(d)
			ep.Extract()
			poll()
		}
		msg := buf[:sendSize(s, size)]
		stamp(msg, sim.Time(s.At))
		if err := ep.Send(s.Dst, 0, msg); err != nil {
			panic(err)
		}
		ep.Extract()
		poll()
	}
	for got < expect || ep.Outstanding() > 0 {
		ep.WaitIncoming()
		ep.Extract()
		poll()
	}
}

// recordArrivals books the open-loop schedule into the series before
// the run, as SoakDriveFM does.
func recordArrivals(series *stats.Series, seqs []seq, size int) error {
	for _, q := range seqs {
		for j := 0; j < q.ln; j++ {
			s := q.at(j)
			if sendSize(s, size) < 8 {
				return fmt.Errorf("payload %d bytes cannot carry the arrival stamp", sendSize(s, size))
			}
			series.Arrival(sim.Time(s.At))
		}
	}
	return nil
}
