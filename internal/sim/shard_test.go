package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// --- Step/Finish refactor ---

// stepWorld builds an identical small simulation on any kernel: two
// sleeping processes and a chain of plain events.
func stepWorld(k *Kernel, log *[]string) {
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Sleep(Duration(100*(i+1)) * Nanosecond)
				*log = append(*log, fmt.Sprintf("p%d@%v", i, p.Now()))
			}
		})
	}
	var tick func()
	n := 0
	tick = func() {
		*log = append(*log, fmt.Sprintf("tick@%v", k.Now()))
		if n++; n < 8 {
			k.After(70*Nanosecond, tick)
		}
	}
	k.After(30*Nanosecond, tick)
}

// TestStepFinishMatchesRun pins the Run refactor: a sequence of Steps
// followed by Finish executes exactly the same events in the same order
// as one RunAll.
func TestStepFinishMatchesRun(t *testing.T) {
	var ref []string
	kr := NewKernel()
	stepWorld(kr, &ref)
	if err := kr.RunAll(); err != nil {
		t.Fatal(err)
	}

	var got []string
	ks := NewKernel()
	stepWorld(ks, &got)
	for h := Time(50 * Nanosecond); ; h += Time(50 * Nanosecond) {
		if err := ks.Step(h); err != nil {
			t.Fatal(err)
		}
		if _, ok := ks.NextEventAt(); !ok {
			break
		}
	}
	if err := ks.Finish(); err != nil {
		t.Fatal(err)
	}

	if strings.Join(got, ",") != strings.Join(ref, ",") {
		t.Fatalf("windowed run diverged:\n got %v\nwant %v", got, ref)
	}
	if ks.EventsRun() != kr.EventsRun() {
		t.Fatalf("events run: windowed %d, reference %d", ks.EventsRun(), kr.EventsRun())
	}
	if ks.Now() != kr.Now() {
		t.Fatalf("final time: windowed %v, reference %v", ks.Now(), kr.Now())
	}
}

// --- Shard merge property ---

// specEvent is one node of a pre-generated random event DAG: where and
// when it fires and which children it schedules when it does.
type specEvent struct {
	shard int
	at    Time
	kids  []int
}

// specRun executes a spec DAG on a shard group (or, with group == nil,
// entirely on the single kernel k) and appends (label, time) trace
// records as events fire.
type specRun struct {
	specs []specEvent
	group *ShardGroup
	k     *Kernel
	trace [][]rec // per shard (index 0 only for single kernel)
}

type rec struct {
	label int
	at    Time
}

func (r *specRun) fire(a any) {
	idx := a.(int)
	sp := &r.specs[idx]
	if r.group == nil {
		r.trace[0] = append(r.trace[0], rec{label: idx, at: r.k.Now()})
		for _, kid := range sp.kids {
			r.k.AtArg(r.specs[kid].at, r.fire, kid)
		}
		return
	}
	s := r.group.Shard(sp.shard)
	r.trace[sp.shard] = append(r.trace[sp.shard], rec{label: idx, at: s.Kernel().Now()})
	for _, kid := range sp.kids {
		r.group.Shard(sp.shard).Post(r.specs[kid].shard, r.specs[kid].at, r.fire, kid)
	}
}

// genSpecs builds a random event DAG over `shards` shards. Cross-shard
// children respect the lookahead window; uniqueTimes forces globally
// distinct timestamps (so the total event order is the time order and
// sharded vs single-kernel traces can be compared exactly).
func genSpecs(rng *rand.Rand, shards int, window Duration, uniqueTimes bool) []specEvent {
	used := map[Time]bool{}
	pick := func(lo Time, span int64) Time {
		for {
			at := lo + Time(rng.Int63n(span))
			if !uniqueTimes || !used[at] {
				used[at] = true
				return at
			}
		}
	}
	var specs []specEvent
	roots := 4 + rng.Intn(5)
	for i := 0; i < roots; i++ {
		specs = append(specs, specEvent{shard: rng.Intn(shards), at: pick(0, int64(window))})
	}
	// Expand breadth-first, bounding the population.
	for i := 0; i < len(specs) && len(specs) < 400; i++ {
		kids := rng.Intn(3)
		for j := 0; j < kids && len(specs) < 400; j++ {
			ks := rng.Intn(shards)
			var at Time
			if ks == specs[i].shard {
				// Same shard: anywhere at or after the parent.
				at = pick(specs[i].at, int64(window))
			} else {
				// Cross shard: at least one window out.
				at = pick(specs[i].at.Add(window), 2*int64(window))
			}
			specs[i].kids = append(specs[i].kids, len(specs))
			specs = append(specs, specEvent{shard: ks, at: at})
		}
	}
	return specs
}

// roots returns the spec indices no other event schedules.
func roots(specs []specEvent) []int {
	isKid := make([]bool, len(specs))
	for i := range specs {
		for _, kid := range specs[i].kids {
			isKid[kid] = true
		}
	}
	var out []int
	for i := range specs {
		if !isKid[i] {
			out = append(out, i)
		}
	}
	return out
}

// runSharded executes the specs on a fresh shard group and returns the
// per-shard traces.
func runSharded(t *testing.T, specs []specEvent, shards int, window Duration) [][]rec {
	t.Helper()
	g := NewShardGroup(shards, window)
	r := &specRun{specs: specs, group: g, trace: make([][]rec, shards)}
	for _, i := range roots(specs) {
		g.Shard(specs[i].shard).Kernel().AtArg(specs[i].at, r.fire, i)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	return r.trace
}

// runSingle executes the same specs on one kernel, the reference order.
func runSingle(t *testing.T, specs []specEvent) []rec {
	t.Helper()
	k := NewKernel()
	r := &specRun{specs: specs, k: k, trace: make([][]rec, 1)}
	for _, i := range roots(specs) {
		k.AtArg(specs[i].at, r.fire, i)
	}
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	return r.trace[0]
}

// TestShardMergeReproducesSingleKernelOrder is the merge property test:
// on random event DAGs with globally unique timestamps, the shard-local
// streams merged by the (at, seq) total order replay exactly the event
// order the single kernel executes.
func TestShardMergeReproducesSingleKernelOrder(t *testing.T) {
	const window = Duration(1000)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 2 + rng.Intn(3)
		specs := genSpecs(rng, shards, window, true)

		ref := runSingle(t, specs)
		traces := runSharded(t, specs, shards, window)

		var merged []rec
		for _, tr := range traces {
			merged = append(merged, tr...)
		}
		// Unique timestamps: the total order is the time order.
		sort.Slice(merged, func(i, j int) bool { return merged[i].at < merged[j].at })

		if len(merged) != len(ref) {
			t.Fatalf("seed %d: sharded ran %d events, single kernel %d", seed, len(merged), len(ref))
		}
		for i := range merged {
			if merged[i] != ref[i] {
				t.Fatalf("seed %d: merged order diverges at %d: sharded %+v, single %+v",
					seed, i, merged[i], ref[i])
			}
		}
	}
}

// TestShardGroupDeterministic drives DAGs with deliberately colliding
// timestamps (same-instant boundary events from different source
// shards) twice and demands bit-identical per-shard traces, plus the
// same executed-event multiset as the single kernel.
func TestShardGroupDeterministic(t *testing.T) {
	const window = Duration(1000)
	for seed := int64(100); seed < 110; seed++ {
		rng1 := rand.New(rand.NewSource(seed))
		shards := 2 + rng1.Intn(3)
		specs := genSpecs(rng1, shards, window, false)

		t1 := runSharded(t, specs, shards, window)
		t2 := runSharded(t, specs, shards, window)
		for s := range t1 {
			if len(t1[s]) != len(t2[s]) {
				t.Fatalf("seed %d shard %d: %d vs %d events across runs", seed, s, len(t1[s]), len(t2[s]))
			}
			for i := range t1[s] {
				if t1[s][i] != t2[s][i] {
					t.Fatalf("seed %d shard %d: trace diverges at %d: %+v vs %+v",
						seed, s, i, t1[s][i], t2[s][i])
				}
			}
		}

		ref := runSingle(t, specs)
		var merged []rec
		for _, tr := range t1 {
			merged = append(merged, tr...)
		}
		key := func(r rec) string { return fmt.Sprintf("%d@%d", r.label, r.at) }
		a := make([]string, len(merged))
		for i, r := range merged {
			a[i] = key(r)
		}
		b := make([]string, len(ref))
		for i, r := range ref {
			b[i] = key(r)
		}
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("seed %d: sharded executed a different event set than the single kernel", seed)
		}
	}
}

// --- Processes across windows ---

// TestShardProcsAcrossWindows runs sleeping processes on every shard
// whose lifetimes span many barrier windows, with a cross-shard event
// ring bouncing among them, and checks both complete correctly.
func TestShardProcsAcrossWindows(t *testing.T) {
	const window = Duration(1000)
	const shards = 3
	g := NewShardGroup(shards, window)

	ticks := make([]int, shards)
	for i := 0; i < shards; i++ {
		i := i
		g.Shard(i).Kernel().Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Sleep(Duration(137 * (i + 1)))
				ticks[i]++
			}
		})
	}

	bounces := 0
	var bounce func(any)
	bounce = func(a any) {
		s := a.(*Shard)
		bounces++
		if bounces < 40 {
			next := (s.id + 1) % shards
			s.Post(next, s.Kernel().Now().Add(window), bounce, g.Shard(next))
		}
	}
	g.Shard(0).Kernel().AtArg(0, bounce, g.Shard(0))

	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range ticks {
		if n != 50 {
			t.Fatalf("shard %d sleeper ran %d/50 iterations", i, n)
		}
	}
	if bounces != 40 {
		t.Fatalf("ring bounced %d/40 times", bounces)
	}
	for i, st := range g.Stats() {
		if st.Windows == 0 {
			t.Fatalf("shard %d ran in no window", i)
		}
	}
}

// TestShardPostUnderLookaheadPanics pins the conservative contract: a
// cross-shard post closer than the window is a model bug and must not
// be silently absorbed.
func TestShardPostUnderLookaheadPanics(t *testing.T) {
	g := NewShardGroup(2, 1000)
	g.Shard(0).Kernel().AtArg(500, func(any) {
		g.Shard(0).Post(1, 500+999, func(any) {}, nil)
	}, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("under-lookahead post did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("panic does not name the lookahead window: %v", r)
		}
	}()
	_ = g.Run()
}

// TestShardProcessFailureSurfaces checks a process panic on any shard
// comes back as the group's error, as it would from a single kernel.
func TestShardProcessFailureSurfaces(t *testing.T) {
	g := NewShardGroup(2, 1000)
	g.Shard(1).Kernel().Spawn("doomed", func(p *Proc) {
		p.Sleep(5000)
		panic("boom")
	})
	g.Shard(0).Kernel().Spawn("fine", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(1000)
		}
	})
	err := g.Run()
	if err == nil {
		t.Fatal("process panic did not surface from ShardGroup.Run")
	}
	if !strings.Contains(err.Error(), "doomed") {
		t.Fatalf("error does not name the failed process: %v", err)
	}
}
