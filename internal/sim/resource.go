package sim

// Resource models a serially-reusable piece of hardware — a bus, a DMA
// engine, a switch output port — with FIFO service in reservation order.
//
// Instead of maintaining an explicit waiter queue, a Resource tracks the
// instant at which it next becomes free. A reservation made at time t for
// duration d is granted the interval [max(t, free), max(t, free)+d] and
// pushes free forward. Because reservations are granted in the order they
// are made and the kernel is deterministic, this is exactly FIFO
// arbitration, with far less bookkeeping than a queue of processes.
type Resource struct {
	k    *Kernel
	free Time

	// busy accumulates granted service time for utilization reporting.
	busy Duration
}

// NewResource creates a resource attached to k.
func NewResource(k *Kernel) *Resource {
	return &Resource{k: k}
}

// Resources returns n resources attached to k, held by value
// in one slice: a model with thousands of them (a fabric's switch
// ports) makes one allocation instead of one per resource, and its hot
// path reaches each one through a single slice index.
func Resources(k *Kernel, n int) []Resource {
	rs := make([]Resource, n)
	for i := range rs {
		rs[i].k = k
	}
	return rs
}

// Reserve books the next available interval of length d and returns its
// start and end instants. It does not block; device state machines use it
// to compute completion times for events.
func (r *Resource) Reserve(d Duration) (start, end Time) {
	start = r.k.now
	if r.free > start {
		start = r.free
	}
	end = start.Add(d)
	r.free = end
	r.busy += d
	return start, end
}

// ReserveAt books the next available interval of length d that starts no
// earlier than `earliest`, returning its bounds. Pipelined device chains
// (e.g. a packet head reaching a switch output port) use it to express
// "ready at t, then FIFO".
func (r *Resource) ReserveAt(earliest Time, d Duration) (start, end Time) {
	start = r.k.now
	if earliest > start {
		start = earliest
	}
	if r.free > start {
		start = r.free
	}
	end = start.Add(d)
	r.free = end
	r.busy += d
	return start, end
}

// Utilization returns busy time divided by elapsed virtual time.
func (r *Resource) Utilization() float64 {
	if r.k.now == 0 {
		return 0
	}
	return float64(r.busy) / float64(r.k.now)
}

// Use blocks the calling process while it holds the resource for d:
// it pays what the process owes, reserves the next available interval
// and sleeps until the interval ends. It returns the instant service
// began (after any queueing delay).
func (p *Proc) Use(r *Resource, d Duration) Time {
	p.Pay()
	start, end := r.Reserve(d)
	p.SleepUntil(end)
	return start
}
