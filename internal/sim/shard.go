package sim

import (
	"fmt"
	"time"
)

// Conservative parallel simulation: a ShardGroup runs N kernels in
// lockstep time windows. Each shard owns a disjoint piece of the model
// and runs its own event loop; anything one shard schedules on another
// must lie at least one lookahead window in the future (the
// Chandy-Misra-Bryant discipline — here the window is the minimum
// cross-shard link latency, so the model itself guarantees the bound).
//
// Every barrier round:
//
//  1. The coordinator picks T, the earliest pending instant across all
//     shards (queued in a kernel, or posted in the last round), and sets
//     the window horizon to T+window-1.
//  2. Every shard with an event inside the window or posts to drain runs
//     on its own goroutine: it drains the last round's posts to it into
//     its kernel, source shard by source shard in post order, then steps
//     its kernel to the horizon (Kernel.Step) if it has an event inside
//     the window, posting to other shards into this round's outboxes.
//
// Outboxes are double-buffered by round parity, so no box is filled and
// drained in one round. Lookahead makes step 2 safe: posts land at
// >= now+window > horizon, inside no running window. The drain is the
// canonical (at, source shard, post seq) order without a sort, so runs
// are deterministic: seq orders only same-instant events, source-major
// post order is that order, and the drain takes one seq per post.

// xevent is one cross-shard post buffered in an outbox.
type xevent struct {
	at  Time
	fn  func(any)
	arg any
}

// outbox holds one source's posts to one destination in one round and
// their earliest instant, on a cache line of its own: other shards
// drain the boxes beside it while the source appends to it.
type outbox struct {
	ev    []xevent
	first Time
	_     [32]byte
}

// ShardStats reports one shard's share of a ShardGroup run.
type ShardStats struct {
	// Events is the number of events the shard's kernel executed.
	Events uint64
	// Posted counts cross-shard events this shard sent.
	Posted uint64
	// Windows counts barrier rounds in which the shard ran events.
	Windows uint64
	// Busy is the wall-clock time the shard's goroutine spent draining
	// posts and running its kernel (not waiting at barriers).
	Busy time.Duration
}

// Shard is one member kernel of a ShardGroup.
type Shard struct {
	g   *ShardGroup
	id  int
	k   *Kernel
	out [2][]outbox // [round parity][destination]

	stats ShardStats
	_     [24]byte // to 128 bytes: Post writes stats.Posted per event
}

// Kernel returns the shard's kernel. Model construction schedules on it
// directly; during a run it must only be touched by events executing on
// it (single-kernel discipline, per shard).
func (s *Shard) Kernel() *Kernel { return s.k }

// Post schedules fn(arg) at absolute time at on shard dst. Posts to the
// shard itself schedule directly; posts to another shard are buffered
// in an outbox, which dst drains at the start of the next round. A
// cross-shard post closer than one lookahead window violates the
// conservative-execution contract and panics: the destination may
// already have simulated past that instant.
func (s *Shard) Post(dst int, at Time, fn func(any), arg any) {
	if dst == s.id {
		s.k.AtArg(at, fn, arg)
		return
	}
	if at < s.k.now.Add(s.g.window) {
		panic(fmt.Sprintf("sim: shard %d posted to shard %d at %v, under the %v lookahead window (now %v)",
			s.id, dst, at, s.g.window, s.k.now))
	}
	s.stats.Posted++
	b := &s.out[s.g.parity][dst]
	if len(b.ev) == 0 || at < b.first {
		b.first = at
	}
	b.ev = append(b.ev, xevent{at: at, fn: fn, arg: arg})
}

// drain schedules the posts addressed to s in the parity boxes, source
// shard by source shard in post order, and empties those boxes.
func (s *Shard) drain(parity int) {
	for _, src := range s.g.shards {
		b := &src.out[parity][s.id]
		for i := range b.ev {
			s.k.AtArg(b.ev[i].at, b.ev[i].fn, b.ev[i].arg)
		}
		clear(b.ev) // drop the fn/arg references
		b.ev = b.ev[:0]
	}
}

// pending returns the earliest instant pending for s, queued in its
// kernel or posted to it in the parity boxes (ok false: none), and
// whether it has posts to drain.
func (s *Shard) pending(parity int) (at Time, ok, posts bool) {
	at, ok = s.k.NextEventAt()
	for _, src := range s.g.shards {
		if b := &src.out[parity][s.id]; len(b.ev) > 0 {
			if posts = true; !ok || b.first < at {
				at, ok = b.first, true
			}
		}
	}
	return at, ok, posts
}

// ShardGroup coordinates n shard kernels through windowed barriers.
type ShardGroup struct {
	window Duration
	parity int // outbox parity the running round's posts fill
	shards []*Shard
}

// NewShardGroup creates n shards with the given lookahead window. The
// window must be positive when n > 1: it is the guarantee that makes
// running the shards concurrently safe.
func NewShardGroup(n int, window Duration) *ShardGroup {
	switch {
	case n < 1:
		panic(fmt.Sprintf("sim: shard group needs at least one shard, got %d", n))
	case n == 1:
		return GroupOf(NewKernel()) // a lone shard only posts to itself
	case window <= 0:
		panic(fmt.Sprintf("sim: %d shards need a positive lookahead window, got %v", n, window))
	}
	g := &ShardGroup{window: window}
	for i := 0; i < n; i++ {
		box := make([]outbox, 2*n)
		g.shards = append(g.shards, &Shard{g: g, id: i, k: NewKernel(), out: [2][]outbox{box[:n], box[n:]}})
	}
	return g
}

// GroupOf wraps an existing kernel as a one-shard group, so a model
// built on a caller's kernel runs through the same Run as a sharded
// one.
func GroupOf(k *Kernel) *ShardGroup {
	g := &ShardGroup{}
	g.shards = []*Shard{{g: g, k: k}}
	return g
}

// Shards returns the number of shards in the group.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// Stats returns a snapshot of every shard's counters, indexed by shard.
func (g *ShardGroup) Stats() []ShardStats {
	out := make([]ShardStats, len(g.shards))
	for i, s := range g.shards {
		out[i] = s.stats
	}
	return out
}

// Now returns the latest virtual instant any shard has reached — the
// group-level analogue of Kernel.Now after a run.
func (g *ShardGroup) Now() Time {
	var t Time
	for _, s := range g.shards {
		if n := s.k.Now(); n > t {
			t = n
		}
	}
	return t
}

// Run executes every shard to quiescence — no pending events anywhere,
// no undelivered cross-shard posts — then unwinds each shard's parked
// processes in shard order. It returns the first failure by (shard,
// kernel) order; with none, the first shard's deadlock error (see
// Kernel.Finish), if a process on it still waits on a signal. Run may
// only be called once per group.
func (g *ShardGroup) Run() error {
	n := len(g.shards)
	if n == 1 {
		// Degenerate group: no barriers, no worker handoff — exactly a
		// single-kernel run.
		s := g.shards[0]
		err := s.k.RunAll()
		s.stats.Events = s.k.EventsRun()
		return err
	}

	start := make([]chan Time, n)
	for i := range start {
		start[i] = make(chan Time, 1)
	}
	done := make(chan int, n)
	errs := make([]error, n)
	// panics[i] is written only by shard i's goroutine: an event
	// callback that panics on a shard must reach the Run caller, the
	// same propagation a single-kernel Run gives its caller.
	panics := make([]any, n)
	for _, s := range g.shards {
		go func() {
			for horizon := range start[s.id] {
				began := time.Now()
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[s.id] = r
						}
					}()
					s.drain(g.parity ^ 1)
					if at, ok := s.k.NextEventAt(); ok && at <= horizon {
						s.stats.Windows++
						errs[s.id] = s.k.Step(horizon)
					}
				}()
				s.stats.Busy += time.Since(began)
				done <- s.id
			}
		}()
	}
	defer func() {
		for i := range start {
			close(start[i])
		}
	}()

	failed := false
	for {
		// Pick the next window: [T, T+window) from the earliest pending
		// instant anywhere.
		posted := g.parity
		var (
			base Time
			any  bool
		)
		for _, s := range g.shards {
			if at, ok, _ := s.pending(posted); ok && (!any || at < base) {
				base, any = at, true
			}
		}
		if !any {
			break
		}
		horizon := base.Add(g.window) - 1
		if horizon < base { // window butts against MaxTime
			horizon = MaxTime
		}

		// Dispatch every shard with work inside the window or posts to
		// drain; the rest keep their clocks parked and cost nothing this
		// round. A shard that only drains counts no window.
		g.parity ^= 1
		dispatched := 0
		for _, s := range g.shards {
			if at, ok, posts := s.pending(posted); posts || ok && at <= horizon {
				start[s.id] <- horizon
				dispatched++
			}
		}
		for i := 0; i < dispatched; i++ {
			<-done
		}
		for i := range g.shards {
			if errs[i] != nil || panics[i] != nil {
				failed = true
				break
			}
		}
		if failed {
			break
		}
	}

	// Teardown in shard order keeps process unwinding deterministic. It
	// covers a shard whose callback panicked too, before the panic is
	// re-raised, as RunAll does for a single kernel. Cross-shard posts
	// buffered by a failed round are never drained — their destinations
	// never advance to them, exactly as a single kernel abandons its
	// queue beyond the failure.
	for _, s := range g.shards {
		s.stats.Events = s.k.EventsRun()
		if err := s.k.finish(!failed); err != nil && errs[s.id] == nil {
			errs[s.id] = err
		}
	}
	for i := range g.shards {
		if panics[i] != nil {
			panic(panics[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
