package sim

import (
	"math/bits"
	"slices"
)

// event is a scheduled callback. Events with equal times fire in
// insertion order (seq), which makes the kernel deterministic.
//
// The callback is carried as a func(any) plus an argument rather than a
// bare closure: the kernel's hottest schedule sites (process sleeps,
// signal wakes, packet deliveries) pass a package-level function and a
// pointer argument, so scheduling an event performs no allocation. Plain
// closures still work through Kernel.At, which boxes the func() into the
// argument slot (func values are pointer-shaped, so the boxing itself
// does not allocate either — only the closure's own capture does).
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// call invokes the event's callback.
func (e *event) call() { e.fn(e.arg) }

// callClosure adapts a plain func() stored in the argument slot.
func callClosure(a any) { a.(func())() }

// less is the kernel's total event order: (at, seq).
func (e *event) less(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// Ladder-queue geometry. The constants trade sorted-tier insertion cost
// against bucket bookkeeping; correctness does not depend on them.
const (
	// nearSpill is the near-tier population that triggers a spill of its
	// tail into a fresh rung, bounding sorted-insert cost.
	nearSpill = 128
	// nearKeep is how many events the near tier keeps on a spill.
	nearKeep = 32
	// splitThreshold is the bucket population above which a touched
	// bucket is split into a finer rung instead of sorted into the near
	// tier. It sits below nearSpill so a freshly transferred bucket does
	// not immediately overflow the near tier and spill straight back.
	splitThreshold = 96
	// rungBuckets is the bucket count of every rung.
	rungBuckets = 64
	// maxRungs bounds refinement depth; a bucket touched at the limit is
	// sorted wholesale instead of split further.
	maxRungs = 48
)

// rung is one far-future refinement level: rungBuckets contiguous
// time slots of equal width starting at base. Buckets before cur have
// already been transferred toward the near tier.
type rung struct {
	base    Time
	width   Duration // always a power of two: bucket index is a shift
	shift   uint     // log2(width)
	limit   Time     // exclusive hard bound: where the next tier out begins
	cur     int      // next bucket to transfer
	used    int      // buckets spanned by this rung (indexes < used)
	count   int      // events remaining in this rung
	buckets [rungBuckets][]event
}

// boundary returns the exclusive upper time bound of bucket i-1 (the
// nominal start of bucket i), clamped to the rung's limit: bucket width
// is rounded up, so the nominal final boundary can overshoot the region
// this rung is responsible for, and an unclamped boundary would let
// nearEnd advance past events held by coarser tiers. The uint64
// arithmetic also saturates spans near MaxTime instead of overflowing.
func (r *rung) boundary(i int) Time {
	e := uint64(r.base) + uint64(i)*uint64(r.width)
	if e > uint64(r.limit) {
		return r.limit
	}
	return Time(e)
}

// end returns the exclusive upper time bound of the rung's whole span.
func (r *rung) end() Time { return r.boundary(r.used) }

// add routes one event into its bucket. Events earlier than the current
// bucket's start (possible when a rung's base was derived from a sparse
// population minimum) clamp into the earliest untransferred bucket; the
// sort on transfer restores exact order.
func (r *rung) add(e event) {
	idx := 0
	if e.at > r.base {
		idx = int((e.at - r.base) >> r.shift)
	}
	if idx < r.cur {
		idx = r.cur
	}
	if idx >= r.used {
		idx = r.used - 1
	}
	r.buckets[idx] = append(r.buckets[idx], e)
	r.count++
}

// ladder is the kernel's event queue: a two-tier ladder/calendar queue
// keyed by the total order (at, seq), so it pops events in exactly the
// sequence the previous binary heap did.
//
// Tiers, nearest virtual time first:
//
//   - near: a sorted slice consumed front-to-back (near[head:] is
//     pending). Pushes with at < nearEnd binary-insert here; Pop is an
//     index increment, and events sharing a timestamp sit contiguously,
//     which is what makes the kernel's same-instant batch drain a pure
//     array walk.
//   - rungs: far-future bucket arrays, finest (earliest span) last.
//     A push appends to its bucket in O(1). When the near tier drains,
//     the earliest untouched bucket is either sorted wholesale into the
//     near tier or — when it is large — split lazily into a finer rung
//     on this first touch.
//   - top: an unsorted overflow list for events beyond every rung,
//     bucketed into a fresh coarsest rung only when the rungs run dry.
//
// Invariants: every event in near precedes every far event in (at, seq)
// order (far events all have at >= nearEnd); rung spans are contiguous
// and ordered, finest = earliest; bucket contents are in push order, so
// each bucket is already seq-sorted, and a one-shot sort by (at, seq)
// on transfer yields the exact global order.
//
// All backing arrays — the near slice, rung structs with their bucket
// slices, and the top slice — are retained and recycled across
// Push/Pop cycles and Run generations, so a steady-state simulation
// reaches a high-water capacity once and schedules allocation-free from
// then on (the discipline TestSteadyStateSchedulingAllocs and
// TestLadderBucketReuse pin).
type ladder struct {
	near    []event
	head    int
	nearEnd Time // exclusive: pushes with at < nearEnd go to near

	rungs []*rung // live rungs, coarsest first, finest (earliest) last
	spare []*rung // recycled rungs, buckets kept for capacity reuse

	top       []event
	topMin    Time
	topMax    Time
	count     int
	transfers uint64 // bucket-to-near transfers (stats/tests)
	splits    uint64 // lazy bucket splits (stats/tests)
	spills    uint64 // near-tier overflow spills (stats/tests)
}

// Len returns the number of pending events.
func (q *ladder) Len() int { return q.count }

// Push inserts e, routing it to the tier that covers e.at.
func (q *ladder) Push(e event) {
	if !q.pushFast(e) {
		q.pushSlow(e)
	}
}

// pushFast is the inlinable push fast path — appending the latest
// pending near event, the common shape, since most schedules are "after
// everything currently queued" and seq breaks ties in push order. It
// reports whether it placed the event; the kernel's schedule sites call
// it directly and fall back to pushSlow.
func (q *ladder) pushFast(e event) bool {
	n := len(q.near)
	if n > q.head && n-q.head < nearSpill && e.at < q.nearEnd && !e.less(&q.near[n-1]) {
		q.near = append(q.near, e)
		q.count++
		return true
	}
	return false
}

// pushSlow routes an event that missed the append fast path: near-tier
// binary inserts (including the spill check the fast path's population
// bound defers here), rung buckets, and the top tier.
func (q *ladder) pushSlow(e event) {
	if q.count == 0 {
		// Empty queue: anchor the near tier so everything sorts directly
		// until a spill establishes a far tier, and give it its working
		// capacity up front so small simulations pay one allocation
		// instead of a doubling ladder of them.
		q.nearEnd = MaxTime
		if cap(q.near) == 0 {
			q.near = make([]event, 0, nearKeep+nearKeep/2)
		}
	}
	q.count++
	if e.at < q.nearEnd {
		q.insertNear(e)
		return
	}
	for i := len(q.rungs) - 1; i >= 0; i-- {
		// An exhausted rung (cur == used) has an empty effective span:
		// its buckets are all behind the transfer cursor, so routing
		// into it would park the event where no refill looks again. The
		// event belongs to the next tier out, whose bucket sort restores
		// exact order, and it still pops after everything the finer
		// rungs hold (their spans end at or before this event's time).
		if r := q.rungs[i]; r.cur < r.used && e.at < r.end() {
			r.add(e)
			return
		}
	}
	if len(q.top) == 0 || e.at < q.topMin {
		q.topMin = e.at
	}
	if len(q.top) == 0 || e.at > q.topMax {
		q.topMax = e.at
	}
	q.top = append(q.top, e)
}

// Pop removes and returns the earliest event. It must not be called on
// an empty queue. The kernel's drive loop hand-inlines this body at its
// two (refill-guarded) pop sites; cold callers use this method.
func (q *ladder) Pop() event {
	if q.head == len(q.near) {
		q.refill()
	}
	e := q.near[q.head]
	q.head++
	q.count--
	if q.head >= nearKeep && q.head*2 >= len(q.near) {
		q.maintainNear()
	}
	return e
}

// maintainNear trims the consumed prefix of the near array: a full
// reset when it has drained, a compaction once the prefix dominates.
// Either way consumed slots are released for GC in bulk here (and in
// the refill path) rather than one store per Pop. Amortized cost: at
// most one event copied per pop.
func (q *ladder) maintainNear() {
	if q.head == len(q.near) {
		clear(q.near)
		q.near = q.near[:0]
		q.head = 0
	} else if q.head*2 >= len(q.near) {
		n := copy(q.near, q.near[q.head:])
		clear(q.near[n:])
		q.near = q.near[:n]
		q.head = 0
	}
}

// PeekAt returns the earliest pending time. It must not be called on an
// empty queue.
func (q *ladder) PeekAt() Time {
	if q.head == len(q.near) {
		q.refill()
	}
	return q.near[q.head].at
}

// NextIsAt reports whether another event at exactly time t is pending.
// It never touches the far tiers: the near tier holds every event with
// at < nearEnd, and t (a popped event's time) is always below that
// bound, so the check is two loads and a compare. This is the kernel's
// same-instant batch-drain test.
func (q *ladder) NextIsAt(t Time) bool {
	return q.head < len(q.near) && q.near[q.head].at == t
}

// insertNear binary-inserts e into the sorted near tier.
func (q *ladder) insertNear(e event) {
	// Append fast path for an empty pending set (the non-empty case was
	// already handled by Push).
	if n := len(q.near); n == q.head || !e.less(&q.near[n-1]) {
		q.near = append(q.near, e)
		if len(q.near)-q.head > nearSpill {
			q.spillNear()
		}
		return
	}
	lo, hi := q.head, len(q.near)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.near[mid].less(&e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.near = append(q.near, event{})
	copy(q.near[lo+1:], q.near[lo:])
	q.near[lo] = e
	if len(q.near)-q.head > nearSpill {
		q.spillNear()
	}
}

// spillNear moves the tail of an oversized near tier into a fresh
// finest rung, restoring bounded insertion cost. The spilled segment is
// sorted and strictly follows every kept event in (at, seq) order, so
// any split point is safe — including one inside an equal-timestamp
// run, because the order key includes seq.
func (q *ladder) spillNear() {
	q.spills++
	start := q.head + nearKeep
	seg := q.near[start:]
	// The spilled region ends where the far tiers begin: the old nearEnd.
	r := q.newRung(seg[0].at, seg[len(seg)-1].at, q.nearEnd)
	for _, e := range seg {
		r.add(e)
	}
	clear(seg)
	q.near = q.near[:start]
	q.nearEnd = r.base
}

// newRung takes a recycled (or fresh) rung spanning [lo, hi] inclusive
// and pushes it as the new finest level. Callers must only create rungs
// whose span precedes every existing rung's remaining span; limit is the
// exclusive instant at which the next tier out takes over.
func (q *ladder) newRung(lo, hi, limit Time) *rung {
	var r *rung
	if n := len(q.spare); n > 0 {
		r = q.spare[n-1]
		q.spare = q.spare[:n-1]
	} else {
		r = new(rung)
	}
	// width is the power of two at or above ceil(span/rungBuckets) —
	// computed from hi-lo so a span touching MaxTime cannot overflow,
	// and a power of two so bucket indexing is a shift, not a division.
	shift := uint(bits.Len64(uint64(hi-lo) / rungBuckets))
	r.base = lo
	r.width = Duration(1) << shift
	r.shift = shift
	r.limit = limit
	r.cur = 0
	r.used = int(uint64(hi-lo)>>shift) + 1
	r.count = 0
	q.rungs = append(q.rungs, r)
	return r
}

// releaseRung retires the exhausted finest rung, keeping its bucket
// arrays for reuse.
func (q *ladder) releaseRung() {
	n := len(q.rungs) - 1
	r := q.rungs[n]
	q.rungs = q.rungs[:n]
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
	}
	q.spare = append(q.spare, r)
}

// refill refreshes an empty near tier from the far tiers: it walks to
// the earliest untouched bucket, splitting oversized buckets into finer
// rungs on first touch, and finally sorts one bucket into place as the
// new near tier (swapping backing arrays rather than copying). With the
// far tiers empty too, it re-anchors the near tier to absorb all future
// pushes.
func (q *ladder) refill() {
	clear(q.near) // release consumed slots before the array is recycled
	q.near = q.near[:0]
	q.head = 0
	for {
		if n := len(q.rungs); n > 0 {
			r := q.rungs[n-1]
			for r.cur < r.used && len(r.buckets[r.cur]) == 0 {
				r.cur++
			}
			if r.cur == r.used {
				q.releaseRung()
				continue
			}
			b := r.buckets[r.cur]
			lo, hi := b[0].at, b[0].at
			for i := 1; i < len(b); i++ {
				if b[i].at < lo {
					lo = b[i].at
				}
				if b[i].at > hi {
					hi = b[i].at
				}
			}
			if len(b) > splitThreshold && hi > lo && n < maxRungs {
				// First touch of a crowded bucket: split it into a finer
				// rung instead of paying one big sort. The finer rung's
				// responsibility ends where this bucket's does.
				q.splits++
				fine := q.newRung(lo, hi, r.boundary(r.cur+1))
				for _, e := range b {
					fine.add(e)
				}
				clear(b)
				r.buckets[r.cur] = b[:0]
				r.count -= len(b)
				r.cur++
				continue
			}
			// Transfer: this bucket becomes the near tier. Buckets are
			// seq-sorted by construction, so an equal-timestamp bucket
			// (hi == lo) is already in final order.
			q.transfers++
			if hi > lo {
				slices.SortFunc(b, func(x, y event) int {
					if x.at != y.at {
						if x.at < y.at {
							return -1
						}
						return 1
					}
					if x.seq < y.seq {
						return -1
					}
					return 1
				})
			}
			// Adopt the bucket's array as the near tier when it is at
			// least as large as the current one; otherwise copy into the
			// retained near array. Either way the larger capacity
			// survives, so the near tier reaches a high-water mark once
			// and transfers allocation-free from then on.
			if cap(b) >= cap(q.near) {
				old := q.near
				q.near = b
				r.buckets[r.cur] = old[:0]
			} else {
				q.near = append(q.near[:0], b...)
				clear(b)
				r.buckets[r.cur] = b[:0]
			}
			q.head = 0
			r.count -= len(b)
			r.cur++
			q.nearEnd = r.boundary(r.cur)
			return
		}
		if len(q.top) > 0 {
			// Rungs ran dry: bucket the overflow list into a fresh
			// coarsest rung spanning its actual population.
			r := q.newRung(q.topMin, q.topMax, MaxTime)
			for _, e := range q.top {
				r.add(e)
			}
			clear(q.top)
			q.top = q.top[:0]
			continue
		}
		// Completely empty: future pushes sort directly into near.
		q.nearEnd = MaxTime
		return
	}
}
