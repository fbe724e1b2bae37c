package workload

import (
	"fmt"

	"fm/internal/cluster"
	"fm/internal/core"
	"fm/internal/cost"
	"fm/internal/metrics"
	"fm/internal/mpi"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
)

// Result is one pattern driven over one fabric at one stack level, with
// the shared measurement set: message/byte totals, completion time,
// topological hop cost, and the full per-message latency distribution.
type Result struct {
	Pattern string
	Fabric  string
	// Messages is the number of messages the pattern generated (and the
	// driver verified delivered).
	Messages int
	// PayloadBytes is the total payload carried, per-send size
	// overrides included.
	PayloadBytes int64
	// Elapsed is the virtual time of the last delivery (raw level) or
	// of cluster quiescence (FM/MPI levels).
	Elapsed sim.Duration
	// MeanHops is the mean switch crossings per message, a pure
	// topology property of the pattern's (src, dst) pairs.
	MeanHops float64
	// Latency is the per-message delivery-latency distribution:
	// injection to tail delivery at the raw level. At the FM and MPI
	// levels it runs from the instant a send was due to the instant the
	// receiving rank observes the message (handler dispatch and, for
	// MPI, matching and reassembly included); a send is due at its At
	// instant, or at its send call when At is zero (see hold). The raw
	// driver records every message; the FM and MPI drivers stamp the
	// due instant into the payload, so messages shorter than the 8-byte
	// timestamp cannot carry one and are not recorded —
	// Latency.Count() < Messages signals such a run.
	Latency stats.Histogram
	// Shards holds per-shard runtime counters (events run, cross-shard
	// posts, barrier windows, busy wall time) when the drive was split
	// across shard kernels; nil for one-shard runs.
	Shards []sim.ShardStats
}

// MBps returns the delivered payload bandwidth in MB/s (MiB).
func (r *Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.PayloadBytes) / metrics.MiB / r.Elapsed.Seconds()
}

// --- Raw fabric driver ---

// rawDrive is one shard's state of a raw drive: the sink counts
// deliveries, records latency, and recycles packets; per-source
// injectors pace themselves off the uplink-free instant. Both run as
// argument-style events and pooled packets, so a run's steady state
// allocates nothing.
type rawDrive struct {
	k         *sim.Kernel
	f         *myrinet.Fabric
	payload   []byte
	size      int // default payload size
	delivered int
	last      sim.Time
	lat       *stats.Histogram
}

// Arrive implements myrinet.Sink.
func (dr *rawDrive) Arrive(p *myrinet.Packet) {
	dr.delivered++
	dr.last = dr.k.Now()
	dr.lat.Record(dr.k.Now().Sub(p.Injected))
	dr.f.Release(p)
}

// rawInjector feeds one source's send list into the fabric: each next
// injection fires when the uplink frees, or at the send's At instant if
// that is later.
type rawInjector struct {
	dr    *rawDrive
	hdr   int
	src   int
	sends sendSeq
	next  int
}

func injectNext(a any) {
	in := a.(*rawInjector)
	if in.next >= in.sends.Len() {
		return
	}
	dr := in.dr
	s := in.sends.At(in.next)
	pkt := dr.f.NewPacket()
	pkt.Src, pkt.Dst = in.src, s.Dst
	pkt.Type = myrinet.Data
	pkt.SetPayload(dr.payload[:sendSize(s, dr.size)])
	pkt.HeaderBytes = in.hdr
	in.next++
	srcDone := dr.f.Inject(pkt)
	if in.next < in.sends.Len() {
		if at := sim.Time(in.sends.At(in.next).At); at > srcDone {
			srcDone = at
		}
	}
	dr.k.AtArg(srcDone, injectNext, in)
}

// DriveRawSharded runs the pattern over a fresh fabric at the raw
// network level (no host stack, so the fabric itself is the
// bottleneck), split over `shards` kernels: every source injects its
// send list back-to-back, each next injection paced by the instant the
// source's uplink frees (or the send's At time). Frames carry the FM
// header size, size bytes of payload by default. Every source's
// injector chain runs on the shard owning the source, sinks count
// deliveries on the shard owning the destination, and packet heads
// crossing shard boundaries travel as timestamped inter-shard events.
//
// For a fixed shard count the run is deterministic — boundary events
// merge in a canonical order — but a sharded run is not required to
// reproduce the one-shard timeline exactly: under contention one kernel
// grants switch output ports in global injection order, while shards
// grant them in merged head-arrival order. Uncontended traffic is
// identical; contended aggregates differ within the reservation-order
// ambiguity the model already has.
func DriveRawSharded(spec FabricSpec, p *cost.Params, pat Pattern, size, shards int) Result {
	g := sim.NewShardGroup(shards, p.SwitchLatency)
	fabs, part, err := cluster.Fabrics(g, spec.Build, p)
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", spec.Name, err))
	}
	n := fabs[0].Nodes()

	res, sends, _, maxSize := prepare(spec, pat, size, fabs...)

	// One shared read-only payload buffer; per-shard drive state so no
	// counter is touched by two kernels.
	payload := make([]byte, maxSize)
	hists := make([]stats.Histogram, shards)
	drs := make([]*rawDrive, shards)
	for s := range drs {
		drs[s] = &rawDrive{k: g.Shard(s).Kernel(), f: fabs[s], payload: payload, size: size, lat: &hists[s]}
	}
	for id := 0; id < n; id++ {
		s := part.Owner(id)
		fabs[s].Attach(id, drs[s])
	}
	for src := 0; src < n; src++ {
		var at sim.Time
		if q := sends[src]; q.Len() > 0 {
			at = sim.Time(q.At(0).At)
		}
		dr := drs[part.Owner(src)]
		dr.k.AtArg(at, injectNext, &rawInjector{dr: dr, hdr: p.FMHeaderBytes, src: src, sends: sends[src]})
	}
	if err := g.Run(); err != nil {
		panic(err)
	}

	delivered := 0
	var last sim.Time
	for _, dr := range drs {
		delivered += dr.delivered
		if dr.last > last {
			last = dr.last
		}
	}
	if delivered != res.Messages {
		panic(fmt.Sprintf("workload: %s on %s delivered %d/%d packets",
			pat.Name(), spec.Name, delivered, res.Messages))
	}
	mergeLatency(&res, hists)
	res.Elapsed = sim.Duration(last)
	res.Shards = shardStats(g)
	return res
}

// --- FM-stack driver ---

// DriveFM runs the pattern through the complete FM 1.0 stack on one
// kernel and a healthy fabric: DriveFMFaultsSharded with an empty fault
// timeline at one shard.
func DriveFM(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int) Result {
	return DriveFMFaultsSharded(spec, cfg, p, pat, size, nil, 1).Result
}

// DriveFMFaultsSharded is the one closed-loop FM drive. It runs the
// pattern through the complete FM 1.0 stack (hosts, SBus, LANai, LCP,
// flow control on every node) on the spec's fabric using handler 0,
// split over `shards` kernels, with the compiled fault timeline ws
// (empty for a healthy run) installed on every fabric replica. Every
// rank runs fmRank: it issues its send list as fast as the layers
// allow, draining incoming messages while sending, then extracts until
// it has received its expected share and its outstanding frames are
// acknowledged (and, under faults, until the settle horizon). Each
// rank's full stack lives on the shard owning its leaf, so only fabric
// hops between shards cross the barrier.
//
// Elapsed is the instant the cluster went quiescent and LastDelivery
// the instant the last message reached a handler. Panics if any message
// goes undelivered or duplicated or any frame stays stranded — a
// timeline whose windows all close guarantees none of these.
func DriveFMFaultsSharded(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int, ws []myrinet.FaultWindow, shards int) FaultResult {
	d, base := newFMDrive(spec, cfg, p, pat, size, ws, shards)
	// Latency histograms are per shard, so no kernel records into
	// another's, and merged after the run.
	hists := make([]stats.Histogram, shards)
	deliver := make([]func(sim.Time, sim.Duration, int), shards)
	for s := range deliver {
		h := &hists[s]
		deliver[s] = func(_ sim.Time, lat sim.Duration, _ int) { h.Record(lat) }
	}
	res := d.run(base, func(id int, ep *core.Endpoint) sim.Time {
		return d.fmRank(id, ep, deliver[d.c.Part.Owner(id)], noPoll)
	})
	mergeLatency(&res.Result, hists)
	checkFaultRun(&res, spec.Name, pat.Name())
	return res
}

// --- MPI driver ---

// mpiDriveTag is the application tag DriveMPI stamps on every message.
const mpiDriveTag = 1

// DriveMPI runs the pattern through the MPI layer on the full FM stack,
// one kernel and a healthy fabric: every rank posts wildcard receives
// for its expected share, issues its send list with blocking tagged
// sends (held and stamped as fmRank's are), then completes receives as
// their messages arrive (matching and reassembly included) and drains
// its outstanding FM frames. The config's frame size bounds the MPI
// fragment size, so payloads above one frame pay segmentation exactly
// as applications would; that is also why the FM frame count is not
// checked against the message count here.
func DriveMPI(spec FabricSpec, cfg core.Config, p *cost.Params, pat Pattern, size int) Result {
	d, base := newFMDrive(spec, cfg, p, pat, size, nil, 1)
	var lat stats.Histogram
	res := d.run(base, func(id int, ep *core.Endpoint) sim.Time {
		comm := mpi.NewWorld(ep, len(d.sends), 0)
		pending := make([]*mpi.Request, d.expect[id])
		for i := range pending {
			pending[i] = comm.Irecv(mpi.AnySource, mpi.AnyTag)
		}
		buf, q := d.buf(id), d.sends[id]
		for j := 0; j < q.Len(); j++ {
			s := q.At(j)
			msg := buf[:sendSize(s, size)]
			stamp(msg, hold(ep, s.At, noPoll))
			comm.Send(s.Dst, mpiDriveTag, msg)
		}
		// Complete receives as they land: sweeping Done requests
		// keeps the latency observation close to each message's
		// actual arrival instead of the end of the run.
		for len(pending) > 0 {
			live := pending[:0]
			for _, req := range pending {
				if !req.Done() {
					live = append(live, req)
					continue
				}
				data, _ := comm.Wait(req)
				if at, ok := stampedAt(data); ok {
					lat.Record(ep.Now().Sub(at))
				}
			}
			pending = live
			if len(pending) > 0 {
				ep.WaitIncoming()
				ep.Extract()
			}
		}
		// Outstanding frames may still be rejected under incast
		// overload; keep extracting so they retransmit.
		for ep.Outstanding() > 0 {
			ep.WaitIncoming()
			ep.Extract()
		}
		return 0 // Result carries no LastDelivery
	})
	res.Latency = lat
	return res.Result
}
