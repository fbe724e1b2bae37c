package sim

import (
	"fmt"
	"sort"
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
//     shards, and sets the window horizon to T+window-1.
//  2. Every shard with work inside the window runs its kernel up to the
//     horizon on its own goroutine (Kernel.Step), accumulating
//     cross-shard posts in per-destination outboxes.
//  3. At the barrier the outboxes are exchanged: each destination's
//     inbox is sorted by (at, source shard, post seq) and scheduled
//     into its kernel in that order.
//
// Lookahead makes step 2 safe — no event inside [T, T+window) can be
// created by another shard during the round, because posts land at
// >= now+window > horizon. The merge order in step 3 makes the whole
// run deterministic: inbox events are assigned local seq numbers in a
// canonical order that does not depend on goroutine scheduling, so
// every kernel pops its queue in exactly the same (at, seq) order on
// every run, at any host parallelism.

// xevent is one cross-shard post buffered in an outbox between
// barriers: an event plus the (source shard, post sequence) pair that
// canonically orders same-instant boundary events during the merge.
type xevent struct {
	at  Time
	src int
	seq uint64
	fn  func(any)
	arg any
}

// ShardStats reports one shard's share of a ShardGroup run.
type ShardStats struct {
	// Events is the number of events the shard's kernel executed.
	Events uint64
	// Posted counts cross-shard events this shard sent.
	Posted uint64
	// Windows counts barrier rounds in which the shard had work.
	Windows uint64
	// Busy is the wall-clock time the shard's goroutine spent running
	// its kernel (not waiting at barriers).
	Busy time.Duration
}

// Shard is one member kernel of a ShardGroup.
type Shard struct {
	g   *ShardGroup
	id  int
	k   *Kernel
	out [][]xevent // per-destination outbox, drained at each barrier
	seq uint64     // post sequence, monotone across the run

	stats ShardStats
}

// Kernel returns the shard's kernel. Model construction schedules on it
// directly; during a run it must only be touched by events executing on
// it (single-kernel discipline, per shard).
func (s *Shard) Kernel() *Kernel { return s.k }

// Post schedules fn(arg) at absolute time at on shard dst. Posts to the
// shard itself schedule directly; posts to another shard are buffered
// in the outbox and delivered at the next barrier. A cross-shard post
// closer than one lookahead window violates the conservative-execution
// contract and panics: the destination may already have simulated past
// that instant.
func (s *Shard) Post(dst int, at Time, fn func(any), arg any) {
	if dst == s.id {
		s.k.AtArg(at, fn, arg)
		return
	}
	if at < s.k.now.Add(s.g.window) {
		panic(fmt.Sprintf("sim: shard %d posted to shard %d at %v, under the %v lookahead window (now %v)",
			s.id, dst, at, s.g.window, s.k.now))
	}
	s.seq++
	s.stats.Posted++
	s.out[dst] = append(s.out[dst], xevent{at: at, src: s.id, seq: s.seq, fn: fn, arg: arg})
}

// ShardGroup coordinates n shard kernels through windowed barriers.
type ShardGroup struct {
	window Duration
	shards []*Shard

	inbox []xevent // merge scratch, reused across barriers
}

// NewShardGroup creates n shards with the given lookahead window. The
// window must be positive when n > 1: it is the guarantee that makes
// running the shards concurrently safe.
func NewShardGroup(n int, window Duration) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard group needs at least one shard, got %d", n))
	}
	if n > 1 && window <= 0 {
		panic(fmt.Sprintf("sim: %d shards need a positive lookahead window, got %v", n, window))
	}
	g := &ShardGroup{window: window}
	for i := 0; i < n; i++ {
		s := &Shard{g: g, id: i, k: NewKernel(), out: make([][]xevent, n)}
		g.shards = append(g.shards, s)
	}
	return g
}

// GroupOf wraps an existing kernel as a one-shard group, so a model
// built on a caller's kernel runs through the same Run as a sharded
// one.
func GroupOf(k *Kernel) *ShardGroup {
	g := &ShardGroup{}
	g.shards = []*Shard{{g: g, k: k, out: make([][]xevent, 1)}}
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
		s := s
		go func() {
			for horizon := range start[s.id] {
				began := time.Now()
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[s.id] = r
						}
					}()
					errs[s.id] = s.k.Step(horizon)
				}()
				s.stats.Busy += time.Since(began)
				s.stats.Windows++
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
		var (
			base Time
			any  bool
		)
		for _, s := range g.shards {
			if at, ok := s.k.NextEventAt(); ok && (!any || at < base) {
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

		// Dispatch every shard with work inside the window; the rest
		// keep their clocks parked and cost nothing this round.
		dispatched := 0
		for _, s := range g.shards {
			if at, ok := s.k.NextEventAt(); ok && at <= horizon {
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
		g.exchange()
	}

	// Teardown in shard order keeps process unwinding deterministic. It
	// covers a shard whose callback panicked too, before the panic is
	// re-raised, as RunAll does for a single kernel. Cross-shard posts
	// buffered by a failed round are dropped — their destinations never
	// advance to them, exactly as a single kernel abandons its queue
	// beyond the failure.
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

// exchange runs one barrier: every outbox drains into its destination
// kernel in the canonical (at, source shard, post seq) order, which
// assigns boundary events their local seq numbers deterministically.
func (g *ShardGroup) exchange() {
	for _, dst := range g.shards {
		in := g.inbox[:0]
		for _, src := range g.shards {
			box := src.out[dst.id]
			in = append(in, box...)
			clearX(box)
			src.out[dst.id] = box[:0]
		}
		if len(in) == 0 {
			continue
		}
		sort.Slice(in, func(a, b int) bool {
			x, y := &in[a], &in[b]
			if x.at != y.at {
				return x.at < y.at
			}
			if x.src != y.src {
				return x.src < y.src
			}
			return x.seq < y.seq
		})
		for i := range in {
			dst.k.AtArg(in[i].at, in[i].fn, in[i].arg)
		}
		clearX(in)
		g.inbox = in[:0]
	}
}

// clearX zeroes a drained xevent slice so buffered fn/arg references do
// not pin their objects until the slice is next overwritten.
func clearX(box []xevent) {
	for i := range box {
		box[i] = xevent{}
	}
}
