// Package ring provides the bounded FIFO queue used for every queue in
// the FM design: the LANai send and receive queues, the host receive
// queue, and the host reject queue (paper Figure 6).
//
// The structure mirrors the paper's producer/consumer counter scheme
// (Section 4.4): the producer owns a monotonically increasing "sent"
// counter and the consumer owns a trailing counter, so each side can keep
// its own counter in a register and synchronization reduces to reading
// the other side's counter. Produced and Consumed expose those counters
// so the simulated host/LANai coordination can match the paper exactly.
package ring

import "fmt"

// Ring is a bounded FIFO queue with monotonic producer/consumer counters.
// The zero value is not usable; construct with New.
type Ring[T any] struct {
	buf      []T
	produced uint64 // total items ever pushed (the paper's hostsent)
	consumed uint64 // total items ever popped (the paper's lanaisent)
	name     string
}

// New returns an empty ring holding at most capacity items.
func New[T any](name string, capacity int) *Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("ring %q: capacity %d must be positive", name, capacity))
	}
	return &Ring[T]{buf: make([]T, capacity), name: name}
}

// Cap returns the queue capacity in items.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of items currently queued.
func (r *Ring[T]) Len() int { return int(r.produced - r.consumed) }

// Empty reports whether the queue holds no items.
func (r *Ring[T]) Empty() bool { return r.produced == r.consumed }

// Full reports whether the queue is at capacity.
func (r *Ring[T]) Full() bool { return r.Len() == len(r.buf) }

// Produced returns the total number of items ever pushed. This is the
// producer-owned counter of the paper's counter pair.
func (r *Ring[T]) Produced() uint64 { return r.produced }

// Consumed returns the total number of items ever popped: the
// consumer-owned counter, which "always trails" Produced by Len.
func (r *Ring[T]) Consumed() uint64 { return r.consumed }

// Push appends v. It panics on overflow: callers model flow control
// explicitly and must check Full first, as the real host and LCP do.
func (r *Ring[T]) Push(v T) {
	if r.Full() {
		panic(fmt.Sprintf("ring %q: push on full queue (cap %d)", r.name, len(r.buf)))
	}
	r.buf[r.produced%uint64(len(r.buf))] = v
	r.produced++
}

// TryPush appends v and reports success, refusing on a full queue.
func (r *Ring[T]) TryPush(v T) bool {
	if r.Full() {
		return false
	}
	r.Push(v)
	return true
}

// Pop removes and returns the oldest item. It panics on underflow.
func (r *Ring[T]) Pop() T {
	if r.Empty() {
		panic(fmt.Sprintf("ring %q: pop on empty queue", r.name))
	}
	i := r.consumed % uint64(len(r.buf))
	v := r.buf[i]
	var zero T
	r.buf[i] = zero // release references
	r.consumed++
	return v
}

// Peek returns the oldest item without removing it.
func (r *Ring[T]) Peek() T {
	if r.Empty() {
		panic(fmt.Sprintf("ring %q: peek on empty queue", r.name))
	}
	return r.buf[r.consumed%uint64(len(r.buf))]
}
