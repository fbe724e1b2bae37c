package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The tests below pin chained wakes: a run of charges is paid as one
// chain, whose links the kernel schedules itself, and must give exactly
// the events, instants, seqs and results of one plain Sleep per charge.

// chainOp is one step of a random process program.
type chainOp struct {
	kind int
	d    Duration // opCharge, opSleep, opUse: a length; opUntil: an instant
	sig  int      // opWait, opPulse: a signal index; opPost: a shard
}

const (
	opCharge = iota // private work: a Charge, or a plain Sleep
	opSleep
	opUntil
	opWait
	opPulse
	opUse
	opPost
	opKinds
)

// chainDurations are short and few, so wakes, callbacks and resource
// grants keep colliding at one instant.
var chainDurations = []Duration{0, Nanosecond, 2 * Nanosecond, 3 * Nanosecond, 5 * Nanosecond, 8 * Nanosecond}

// chainProgram draws one process's program: runs of one to nine charges
// (past chainCap, so a full chain pays early) between shared steps.
// posts lists the shards a post may address; nil draws no posts.
func chainProgram(rng *rand.Rand, steps, sigs int, posts []int) []chainOp {
	var prog []chainOp
	pick := func() Duration { return chainDurations[rng.Intn(len(chainDurations))] }
	for len(prog) < steps {
		for n := rng.Intn(10); n > 0; n-- {
			prog = append(prog, chainOp{kind: opCharge, d: pick()})
		}
		op := chainOp{kind: opSleep + rng.Intn(opKinds-opSleep)}
		switch op.kind {
		case opSleep, opUse:
			op.d = pick()
		case opUntil:
			op.d = Duration(rng.Intn(200)) * Nanosecond
		case opWait, opPulse:
			op.sig = rng.Intn(sigs)
		case opPost:
			if posts == nil {
				op = chainOp{kind: opSleep, d: pick()}
				break
			}
			op.sig = posts[rng.Intn(len(posts))]
		}
		prog = append(prog, op)
	}
	return prog
}

// chainModel is one kernel's share of a run: its signals, a resource
// its processes share, and the trace its processes and callbacks write.
type chainModel struct {
	k     *Kernel
	sigs  []*Signal
	res   *Resource
	trace []string
}

func newChainModel(k *Kernel, sigs int) *chainModel {
	m := &chainModel{k: k, res: NewResource(k)}
	for i := 0; i < sigs; i++ {
		m.sigs = append(m.sigs, NewSignal(k))
	}
	return m
}

func (m *chainModel) record(who string, step int) {
	m.trace = append(m.trace, fmt.Sprintf("%s/%d@%v", who, step, m.k.now))
}

// chainPost is a cross-shard post: the destination records its arrival.
type chainPost struct {
	m    *chainModel
	from string
	step int
}

func chainArrive(a any) {
	c := a.(*chainPost)
	c.m.record("post "+c.from, c.step)
}

// spawnProgram runs prog as a process named name on m's kernel. Charged
// runs become Charge calls when chained and plain Sleeps otherwise; each
// shared step records the process and the instant after it, which in
// the chained form also pays first, as the rule asks of any touch of
// shared state. post sends a post from this kernel to shard dst.
func (m *chainModel) spawnProgram(name string, prog []chainOp, chained bool, post func(dst int, at Time, c *chainPost)) {
	m.k.Spawn(name, func(p *Proc) {
		for i, op := range prog {
			switch op.kind {
			case opCharge:
				if chained {
					p.Charge(op.d)
				} else {
					p.Sleep(op.d)
				}
				continue
			case opSleep:
				p.Sleep(op.d)
			case opUntil:
				p.SleepUntil(Time(op.d))
			case opWait:
				p.Wait(m.sigs[op.sig])
			case opPulse:
				p.Pay()
				m.sigs[op.sig].Pulse()
			case opUse:
				p.Use(m.res, op.d)
			case opPost:
				p.Pay()
				post(op.sig, p.Now().Add(chainWindow), &chainPost{m: m, from: name, step: i})
			}
			m.record(name, i)
		}
	})
}

// addCallbacks schedules plain events on the program's instant grid:
// some pulse a signal (so waiters come back), the rest only record.
func (m *chainModel) addCallbacks(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		at := Time(rng.Intn(300)) * Time(Nanosecond)
		sig := rng.Intn(len(m.sigs))
		pulse := rng.Intn(2) == 0
		m.k.At(at, func() {
			if pulse {
				m.sigs[sig].Pulse()
			}
			m.record("callback", i)
		})
	}
}

// chainOutcome is everything a run shows: what ran, when and in which
// order, and the kernel's counters.
type chainOutcome struct {
	trace  []string
	events uint64
	util   float64
	now    Time
	err    string
}

func (m *chainModel) outcome(err error) chainOutcome {
	o := chainOutcome{trace: m.trace, events: m.k.EventsRun(), util: m.res.Utilization(), now: m.k.Now()}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func (o chainOutcome) diff(p chainOutcome) string {
	switch {
	case o.events != p.events:
		return fmt.Sprintf("events %d vs %d", o.events, p.events)
	case o.util != p.util:
		return fmt.Sprintf("utilization %v vs %v", o.util, p.util)
	case o.now != p.now:
		return fmt.Sprintf("final clock %v vs %v", o.now, p.now)
	case o.err != p.err:
		return fmt.Sprintf("error %q vs %q", o.err, p.err)
	case !slices.Equal(o.trace, p.trace):
		for i := range min(len(o.trace), len(p.trace)) {
			if o.trace[i] != p.trace[i] {
				return fmt.Sprintf("trace entry %d: %s vs %s", i, o.trace[i], p.trace[i])
			}
		}
		return fmt.Sprintf("trace lengths %d vs %d", len(o.trace), len(p.trace))
	}
	return ""
}

const chainWindow = 10 * Nanosecond

// TestChainMatchesPlainSleeps: random programs of charges, sleeps,
// absolute sleeps, waits, pulses and resource holds, among callbacks at
// colliding instants, run once with every charge a plain Sleep and once
// with charged runs paid as chains. Everything observable must match.
func TestChainMatchesPlainSleeps(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		run := func(chained bool) chainOutcome {
			rng := rand.New(rand.NewSource(seed))
			m := newChainModel(NewKernel(), 2)
			for i := 0; i < 4; i++ {
				m.spawnProgram(fmt.Sprintf("p%d", i), chainProgram(rng, 40, 2, nil), chained, nil)
			}
			m.addCallbacks(rng, 60)
			return m.outcome(m.k.RunAll())
		}
		plain, chained := run(false), run(true)
		if d := plain.diff(chained); d != "" {
			t.Fatalf("seed %d: plain and chained runs differ: %s", seed, d)
		}
		if len(plain.trace) < 40 {
			t.Fatalf("seed %d: only %d trace entries; the programs barely ran", seed, len(plain.trace))
		}
	}
}

// TestChainAcrossShardHorizon runs the random programs on a two-shard
// group whose window is shorter than a chain, so links wait past a
// window horizon, and processes post to the other shard.
func TestChainAcrossShardHorizon(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		run := func(chained bool) ([2]chainOutcome, []ShardStats) {
			rng := rand.New(rand.NewSource(seed))
			g := NewShardGroup(2, chainWindow)
			var ms [2]*chainModel
			for s := range ms {
				ms[s] = newChainModel(g.Shard(s).Kernel(), 2)
			}
			for s, m := range ms {
				sh := g.Shard(s)
				post := func(dst int, at Time, c *chainPost) {
					c.m = ms[dst]
					sh.Post(dst, at, chainArrive, c)
				}
				for i := 0; i < 3; i++ {
					m.spawnProgram(fmt.Sprintf("s%dp%d", s, i), chainProgram(rng, 30, 2, []int{0, 1}), chained, post)
				}
				m.addCallbacks(rng, 40)
			}
			err := g.Run()
			var out [2]chainOutcome
			for s, m := range ms {
				out[s] = m.outcome(err)
			}
			return out, g.Stats()
		}
		plain, plainStats := run(false)
		chained, chainedStats := run(true)
		for s := range plain {
			if d := plain[s].diff(chained[s]); d != "" {
				t.Fatalf("seed %d shard %d: plain and chained runs differ: %s", seed, s, d)
			}
			p, c := plainStats[s], chainedStats[s]
			if p.Events != c.Events || p.Posted != c.Posted || p.Windows != c.Windows {
				t.Fatalf("seed %d shard %d: stats %+v vs %+v", seed, s, p, c)
			}
			if p.Windows < 3 {
				t.Fatalf("seed %d shard %d: %d windows; no chain can cross a horizon", seed, s, p.Windows)
			}
		}
	}
}

// TestChainDefersTheClock: charges leave the clock where it is, the pay
// moves it by their sum, and each charge is still one event.
func TestChainDefersTheClock(t *testing.T) {
	k := NewKernel()
	k.Spawn("worker", func(p *Proc) {
		p.Charge(3 * Nanosecond)
		p.Charge(0)
		p.Charge(4 * Nanosecond)
		if p.Now() != 0 {
			t.Errorf("charges moved the clock to %v", p.Now())
		}
		p.Pay()
		if p.Now() != Time(7*Nanosecond) {
			t.Errorf("after the pay now = %v, want 7ns", p.Now())
		}
		p.Charge(2 * Nanosecond) // owed as the body ends
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(9*Nanosecond) || k.EventsRun() != 5 {
		t.Fatalf("run ended at %v after %d events, want 9ns and 5 (spawn and four charges)", k.Now(), k.EventsRun())
	}
}

// TestCoroHandedBackWhenChainPendingAtTeardown: chains cut by the last
// Step horizon, one paid explicitly and one owed as its body returns,
// unwind at teardown like a timed sleeper and hand their coroutines
// back.
func TestCoroHandedBackWhenChainPendingAtTeardown(t *testing.T) {
	const procs = 4
	requireHandsBack(t, procs, "", func() error {
		k := NewKernel()
		for i := 0; i < procs; i++ {
			k.Spawn("chained", func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Charge(Microsecond)
				}
				if i%2 == 0 {
					p.Pay()
					t.Error("a pay cut by the horizon returned")
				}
			})
		}
		horizon := Time(2*Microsecond + 500*Nanosecond)
		if err := k.Step(horizon); err != nil {
			return err
		}
		// Each process ran its spawn wake and two links.
		if n := k.EventsRun(); n != 3*procs {
			t.Fatalf("%d events before the horizon, want %d", n, 3*procs)
		}
		if at, ok := k.NextEventAt(); !ok || at <= horizon {
			t.Fatalf("next event = %v, %v; want a link past the horizon", at, ok)
		}
		return k.Finish()
	})
}
