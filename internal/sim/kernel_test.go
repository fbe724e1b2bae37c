package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30*Time(Nanosecond), func() { got = append(got, 3) })
	k.At(10*Time(Nanosecond), func() { got = append(got, 1) })
	k.At(20*Time(Nanosecond), func() { got = append(got, 2) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*Time(Nanosecond) {
		t.Fatalf("final time = %v", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(Time(Microsecond), func() { got = append(got, i) })
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events not FIFO: %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(Time(Microsecond), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var stamps []Time
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			stamps = append(stamps, p.Now())
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Time{10 * Time(Microsecond), 20 * Time(Microsecond), 30 * Time(Microsecond)} {
		if stamps[i] != want {
			t.Fatalf("stamp[%d] = %v, want %v", i, stamps[i], want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		order = append(order, "a10")
		p.Sleep(20 * Nanosecond) // wakes at 30
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(20 * Nanosecond)
		order = append(order, "b20")
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a10", "b20", "a30"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalPulseWakesAllWaiters(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woke := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			p.Wait(s)
			woke++
		})
	}
	k.After(Microsecond, s.Pulse)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestSignalNoMemory(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	s.Pulse() // no waiters: lost
	var at Time
	k.Spawn("w", func(p *Proc) {
		p.Wait(s)
		at = p.Now()
	})
	k.After(5*Microsecond, s.Pulse)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Time(Microsecond) {
		t.Fatalf("waiter woke at %v, want the 5us pulse (a pulse before the wait must be lost)", at)
	}
}

func TestResourceFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn("u", func(p *Proc) {
			p.Use(r, 10*Microsecond)
			ends = append(ends, p.Now())
		})
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Time(Microsecond), 20 * Time(Microsecond), 30 * Time(Microsecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	// Busy the whole run: 30us of granted service over 30us elapsed.
	if u := r.Utilization(); k.Now() != want[2] || u != 1.0 {
		t.Fatalf("utilization = %v at %v, want 1.0 at %v", u, k.Now(), want[2])
	}
}

func TestResourceReserveNonBlocking(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	k.At(0, func() {
		s1, e1 := r.Reserve(5 * Microsecond)
		s2, e2 := r.Reserve(5 * Microsecond)
		if s1 != 0 || e1 != 5*Time(Microsecond) {
			t.Errorf("first grant [%v,%v]", s1, e1)
		}
		if s2 != 5*Time(Microsecond) || e2 != 10*Time(Microsecond) {
			t.Errorf("second grant [%v,%v]", s2, e2)
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
}

func TestProcPanicSurfaces(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	err := k.RunAll()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

// TestCallbackPanicAttribution pins failure blame under self-driving
// processes: a panic inside a plain event callback that happens to run
// on a driving process's coroutine must be reported as a callback
// failure, not as that process panicking.
func TestCallbackPanicAttribution(t *testing.T) {
	k := NewKernel()
	k.Spawn("innocent", func(p *Proc) { p.Sleep(10 * Microsecond) })
	k.At(Time(Microsecond), func() { panic("callback boom") })
	err := k.RunAll()
	if err == nil {
		t.Fatal("expected error from panicking callback")
	}
	if !strings.Contains(err.Error(), "event callback panicked") {
		t.Fatalf("callback panic misattributed: %v", err)
	}
}

func TestStopUnwindsParkedProcs(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	cleaned := false
	k.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Wait(s) // never pulsed; Run teardown must unwind this goroutine
	})
	if err := k.RunAll(); err == nil || !strings.Contains(err.Error(), `deadlock at 0ps`) {
		t.Fatalf("RunAll = %v, want the deadlock error", err)
	}
	if !cleaned {
		t.Fatal("parked process was not unwound")
	}
}

// TestDeadlockNamesParkedProcesses: a run that reaches quiescence with
// processes still waiting on a signal nobody will pulse returns an
// error naming each of them and the virtual time, from one kernel and
// from any shard of a group. A failure elsewhere in a group is reported
// instead, since it is why the others were left waiting.
func TestDeadlockNamesParkedProcesses(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("done", func(p *Proc) { p.Sleep(Microsecond) })
	k.Spawn("rank1", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		p.Wait(s)
	})
	k.Spawn("rank2", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		p.Wait(s)
	})
	want := `sim: deadlock at 3us: no event is pending, and these processes wait on a signal: "rank1", "rank2"`
	if err := k.RunAll(); err == nil || err.Error() != want {
		t.Fatalf("RunAll = %v, want %q", err, want)
	}

	g := NewShardGroup(2, Microsecond)
	g.Shard(0).Kernel().Spawn("fine", func(p *Proc) { p.Sleep(Microsecond) })
	k1 := g.Shard(1).Kernel()
	k1.Spawn("stuck", func(p *Proc) { p.Wait(NewSignal(k1)) })
	want = `sim: deadlock at 0ps: no event is pending, and these processes wait on a signal: "stuck"`
	if err := g.Run(); err == nil || err.Error() != want {
		t.Fatalf("ShardGroup.Run = %v, want %q", err, want)
	}

	g = NewShardGroup(2, Microsecond)
	k0 := g.Shard(0).Kernel()
	k0.Spawn("waiting", func(p *Proc) { p.Wait(NewSignal(k0)) })
	g.Shard(1).Kernel().Spawn("doomed", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	if err := g.Run(); err == nil || !strings.Contains(err.Error(), `process "doomed" panicked`) {
		t.Fatalf("ShardGroup.Run = %v, want the failure of shard 1", err)
	}
}

// TestDeterminism runs a randomized workload twice from the same seed and
// requires identical schedules.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, Time, int) {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		s := NewSignal(k)
		r := NewResource(k)
		total := 0
		for i := 0; i < 20; i++ {
			d := Duration(rng.Intn(1000)+1) * Nanosecond
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(d)
					p.Use(r, d/2+1)
					total++
					s.Pulse()
				}
			})
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return k.EventsRun(), k.Now(), total
	}
	e1, t1, n1 := run(42)
	e2, t2, n2 := run(42)
	if e1 != e2 || t1 != t2 || n1 != n2 {
		t.Fatalf("nondeterministic: (%d,%v,%d) vs (%d,%v,%d)", e1, t1, n1, e2, t2, n2)
	}
}

// ladderKey is the (at, seq) order key the ladder oracle sorts by.
type ladderKey struct {
	at  Time
	seq uint64
}

func sortKeys(keys []ladderKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].at != keys[j].at {
			return keys[i].at < keys[j].at
		}
		return keys[i].seq < keys[j].seq
	})
}

// TestLadderProperty checks the ladder queue against a sort-based oracle
// (the successor of the seed's TestHeapProperty): for random push sets
// the queue must pop in exact (at, seq) order. The time mask keeps many
// equal timestamps in play so seq tie-breaking is exercised, and the
// population sizes cross the spill/split thresholds so far-tier paths
// run too.
func TestLadderProperty(t *testing.T) {
	f := func(times []int64) bool {
		var q ladder
		var keys []ladderKey
		for i, ti := range times {
			at := Time(ti & 0xFFFFF) // small, non-negative, heavy on ties
			q.Push(event{at: at, seq: uint64(i)})
			keys = append(keys, ladderKey{at, uint64(i)})
		}
		sortKeys(keys)
		for _, want := range keys {
			if q.PeekAt() != want.at {
				return false
			}
			got := q.Pop()
			if got.at != want.at || got.seq != want.seq {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLadderPushDuringPop drains a randomized queue while concurrently
// pushing new events at or after the current pop time — the kernel's
// actual access pattern (event callbacks scheduling follow-ups) — and
// checks the merged sequence against the oracle. Pushes land on every
// side of bucket-split and near-tier boundaries, including exact
// same-timestamp ties with in-flight events.
func TestLadderPushDuringPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var q ladder
		var pending []ladderKey
		var seq uint64
		push := func(at Time) {
			seq++
			q.Push(event{at: at, seq: seq})
			pending = append(pending, ladderKey{at, seq})
		}
		// Seed population: wide spread to build rungs plus dense ties.
		n := 200 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			push(Time(rng.Int63n(1 << (10 + rng.Intn(30)))))
		}
		var got []ladderKey
		for q.Len() > 0 {
			e := q.Pop()
			got = append(got, ladderKey{e.at, e.seq})
			// Schedule follow-ups relative to the current instant, as
			// event callbacks do: same-instant ties, near-future, and
			// far-future beyond any existing tier boundary.
			if rng.Intn(3) == 0 && len(got) < 3*n {
				switch rng.Intn(4) {
				case 0:
					push(e.at) // same-timestamp tie: must pop after equal-at pending
				case 1:
					push(e.at + Time(rng.Int63n(64)))
				case 2:
					push(e.at + Time(rng.Int63n(1<<20)))
				default:
					push(e.at + Time(rng.Int63n(1<<40)))
				}
			}
		}
		sortKeys(pending)
		if len(got) != len(pending) {
			t.Fatalf("trial %d: popped %d of %d events", trial, len(got), len(pending))
		}
		for i := range pending {
			if got[i] != pending[i] {
				t.Fatalf("trial %d: pop %d = %+v, want %+v", trial, i, got[i], pending[i])
			}
		}
	}
}

// TestLadderSameInstantBurst pins the pure tie-breaking path: a large
// burst at one instant (well past the spill threshold) must come back in
// seq order, and a second burst pushed mid-drain must follow the first.
func TestLadderSameInstantBurst(t *testing.T) {
	var q ladder
	const at = Time(12345)
	for i := 0; i < 3000; i++ {
		q.Push(event{at: at, seq: uint64(i)})
	}
	for i := 0; i < 1500; i++ {
		if e := q.Pop(); e.at != at || e.seq != uint64(i) {
			t.Fatalf("pop %d = (%v, %d)", i, e.at, e.seq)
		}
	}
	for i := 3000; i < 3100; i++ {
		q.Push(event{at: at, seq: uint64(i)})
	}
	for i := 1500; i < 3100; i++ {
		if e := q.Pop(); e.at != at || e.seq != uint64(i) {
			t.Fatalf("pop %d = (%v, %d)", i, e.at, e.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestLadderKeySortMatchesComparisonSort: a transfer's packed-key
// gather must give the exact (at, seq) order for every bucket the key
// fits: up to keyCap events over spans up to the key's limit, heavy on
// ties, with seqs drawn at random except that equal-time events come in
// seq order, the one property a bucket guarantees.
func TestLadderKeySortMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(keyCap)
		lo := Time(rng.Int63n(1 << 40))
		span := int64(1) << rng.Intn(64-keyBits)
		b := make([]event, n)
		seqs := rng.Perm(n)
		for i := range b {
			b[i].at = lo + Time(rng.Int63n(span))
		}
		// Hand each time's seqs out in index order.
		byTime := map[Time][]int{}
		for i := range b {
			byTime[b[i].at] = append(byTime[b[i].at], seqs[i])
		}
		for _, ss := range byTime {
			sort.Ints(ss)
		}
		for i := range b {
			ss := byTime[b[i].at]
			b[i].seq, byTime[b[i].at] = uint64(ss[0]), ss[1:]
		}
		want := make([]ladderKey, n)
		for i, e := range b {
			want[i] = ladderKey{e.at, e.seq}
		}
		sortKeys(want)
		var keys [keyCap]uint64
		got := sortedInto(nil, b, lo, &keys)
		for i := range want {
			if got[i].at != want[i].at || got[i].seq != want[i].seq {
				t.Fatalf("trial %d (%d events over %d ps): position %d = (%v, %d), want (%v, %d)",
					trial, n, span, i, got[i].at, got[i].seq, want[i].at, want[i].seq)
			}
		}
	}
}

// TestLadderWideSpans: pops stay in exact order when pending times
// spread over the whole clock, so rung buckets span up to the packed
// key's limit.
func TestLadderWideSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q ladder
	var keys []ladderKey
	for i := 0; i < 5000; i++ {
		at := Time(rng.Int63n(int64(MaxTime)))
		if i%3 == 0 && len(keys) > 0 {
			at = keys[rng.Intn(len(keys))].at // a tie
		}
		q.Push(event{at: at, seq: uint64(i)})
		keys = append(keys, ladderKey{at, uint64(i)})
	}
	sortKeys(keys)
	for i, want := range keys {
		if got := q.Pop(); got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, got.at, got.seq, want.at, want.seq)
		}
	}
	if q.transfers == 0 {
		t.Fatal("no bucket transfer ran")
	}
}

// TestLadderSplitBoundaries forces the lazy bucket-split machinery
// (population just above splitThreshold packed into one coarse bucket)
// and verifies exact order across the split boundaries.
func TestLadderSplitBoundaries(t *testing.T) {
	var q ladder
	var keys []ladderKey
	var seq uint64
	push := func(at Time) {
		seq++
		q.Push(event{at: at, seq: seq})
		keys = append(keys, ladderKey{at, seq})
	}
	// Overflow the near tier with a wide spread: the spill carves a rung
	// with coarse buckets (width ~ span/rungBuckets).
	for i := 0; i <= nearSpill; i++ {
		push(Time(1_000_000 + i*10_000))
	}
	// Then land a dense cluster — more than splitThreshold events across
	// a few distinct timestamps — inside a single coarse bucket of that
	// rung. Its first touch during the drain must split it into a finer
	// rung.
	for i := 0; i < 4*splitThreshold; i++ {
		push(Time(1_800_000 + i%100))
	}
	sortKeys(keys)
	for i, want := range keys {
		got := q.Pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d = (%v,%d), want (%v,%d)", i, got.at, got.seq, want.at, want.seq)
		}
	}
	if q.splits == 0 {
		t.Fatal("workload never exercised a bucket split")
	}
	if q.spills == 0 {
		t.Fatal("workload never exercised a near-tier spill")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{12500 * Picosecond, "12.5ns"},
		{3500 * Nanosecond, "3.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(0).Add(10 * Microsecond)
	b := a.Add(5 * Microsecond)
	if b.Sub(a) != 5*Microsecond {
		t.Fatalf("Sub = %v", b.Sub(a))
	}
	if Ns(12).Nanoseconds() != 12 {
		t.Fatal("Ns")
	}
	if Us(3) != 3*Microsecond {
		t.Fatal("Us")
	}
	if NsF(12.5) != 12500*Picosecond {
		t.Fatal("NsF")
	}
}

// countArg is a package-level event callback for the allocation test.
func countArg(a any) { *(a.(*int))++ }

// TestSteadyStateSchedulingAllocs pins the kernel's allocation
// discipline: once the event heap has reached its high-water capacity,
// scheduling and running argument-style events allocates nothing, and
// the heap's backing array is reused across Run generations.
func TestSteadyStateSchedulingAllocs(t *testing.T) {
	k := NewKernel()
	count := 0
	// Warm up the heap to its high-water mark.
	for i := 0; i < 128; i++ {
		k.AtArg(k.Now().Add(Microsecond), countArg, &count)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 128; i++ {
			k.AtArg(k.Now().Add(Microsecond), countArg, &count)
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state scheduling allocates %.1f objects per generation, want 0", allocs)
	}
}

// TestLadderExhaustedRungRouting pins the scale-sweep regression where
// an event was routed into an exhausted rung (transfer cursor at the
// end, but the rung not yet released) and silently parked behind the
// cursor, never to pop. The geometry reproduces it: a spill builds a
// coarse rung whose last bucket holds a dense cluster; touching that
// bucket splits it into a finer rung and exhausts the parent; a push
// landing between the finer rung's span and the parent's nominal end
// must then route past the exhausted parent to the top tier.
func TestLadderExhaustedRungRouting(t *testing.T) {
	var q ladder
	var keys []ladderKey
	var seq uint64
	push := func(at Time) {
		seq++
		q.Push(event{at: at, seq: seq})
		keys = append(keys, ladderKey{at, seq})
	}
	for i := 0; i <= nearSpill; i++ {
		push(Time(1_000_000 + i*10_000)) // wide spread: spill into a coarse rung
	}
	for i := 0; i < 2*splitThreshold+8; i++ {
		push(Time(2_271_000 + i%100)) // dense cluster in the rung's last bucket
	}
	var got []ladderKey
	pushedLate := false
	for q.Len() > 0 {
		e := q.Pop()
		got = append(got, ladderKey{e.at, e.seq})
		if !pushedLate && e.at >= 2_271_000 {
			// The split has happened and the parent rung is exhausted;
			// this lands past the finer rung's span (which ends just
			// above the cluster) but below the parent's nominal end.
			pushedLate = true
			push(Time(2_283_000))
		}
	}
	sortKeys(keys)
	if len(got) != len(keys) {
		t.Fatalf("popped %d of %d events (exhausted rung swallowed %d)",
			len(got), len(keys), len(keys)-len(got))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, got[i], keys[i])
		}
	}
	if q.splits == 0 {
		t.Fatal("scenario no longer exercises a bucket split; rebuild the geometry")
	}
}

// TestLadderBucketReuse extends the high-water allocation discipline to
// the ladder's far tiers: once a generation of far-future scheduling has
// grown the rungs, bucket arrays, and top tier to capacity, subsequent
// identical generations must run allocation-free — rung structs and
// bucket arrays are recycled, not reallocated.
func TestLadderBucketReuse(t *testing.T) {
	k := NewKernel()
	count := 0
	generation := func() {
		// Spread far enough apart to defeat the near tier (forcing
		// spills, rungs, and top-tier rebucketing) and big enough to
		// split buckets.
		base := k.Now()
		for i := 0; i < 3000; i++ {
			at := base.Add(Duration(1+i%7) * Microsecond * Duration(1+i%53)).Add(Duration(i) * 40 * Millisecond)
			k.AtArg(at, countArg, &count)
		}
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	generation() // reach high-water capacity
	generation()
	allocs := testing.AllocsPerRun(10, generation)
	if allocs != 0 {
		t.Errorf("steady-state far-tier scheduling allocates %.1f objects per generation, want 0", allocs)
	}
	if k.q.transfers == 0 || k.q.spills == 0 {
		t.Fatalf("workload did not exercise the far tiers (transfers=%d spills=%d)", k.q.transfers, k.q.spills)
	}
}

// TestSignalWaitReuse: a process that waits on two different signals in
// alternation must never see a cross-wired wake, even when a stale pulse
// lands on the signal it waited on last.
func TestSignalWaitReuse(t *testing.T) {
	k := NewKernel()
	a := NewSignal(k)
	b := NewSignal(k)
	var wokeA, wokeB int
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(a)
			wokeA++
			p.Wait(b)
			wokeB++
		}
	})
	k.Spawn("pulser", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Microsecond)
			a.Pulse()
			p.Sleep(Microsecond)
			// A stale pulse on a must not wake the waiter off b.
			a.Pulse()
			b.Pulse()
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if wokeA != 10 || wokeB != 10 {
		t.Fatalf("wokeA=%d wokeB=%d, want 10/10", wokeA, wokeB)
	}
}
