package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The tests below pin the coroutine lifecycle: however a process ends —
// its body returns, teardown unwinds it from a Signal or from a sleep
// past the horizon, or it panics — its coroutine must go back to the
// idle list, so the next kernel's Spawns create no goroutine.

// settleGoroutines waits for goroutines that are merely exiting (a
// shard group's workers outlive its Run by a moment) and fails the test
// unless the count comes down to want.
func settleGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	got := runtime.NumGoroutine()
	for i := 0; i < 200 && got > want; i++ {
		time.Sleep(5 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > want {
		t.Fatalf("%s: %d goroutines, want at most %d (a coroutine was not handed back)", when, got, want)
	}
}

// idleCoros returns the length of the coroutine idle list.
func idleCoros() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.list)
}

// requireHandsBack runs a simulation with procs processes twice, on an
// idle list emptied for the test. The first run must create exactly
// procs coroutines and leave all of them idle; the second must reuse
// them and create no goroutine. Each run must fail with an error
// containing wantErr, or succeed when wantErr is empty.
func requireHandsBack(t *testing.T, procs int, wantErr string, run func() error) {
	t.Helper()
	idle.Lock()
	saved := idle.list
	idle.list = nil
	idle.Unlock()
	t.Cleanup(func() {
		idle.Lock()
		idle.list = append(idle.list, saved...)
		idle.Unlock()
	})

	base := runtime.NumGoroutine()
	for _, when := range []string{"first kernel", "second kernel"} {
		err := run()
		if (err == nil) != (wantErr == "") || err != nil && !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: run error = %v, want %q", when, err, wantErr)
		}
		if n := idleCoros(); n != procs {
			t.Fatalf("%s: %d idle coroutines after the run, want %d", when, n, procs)
		}
		settleGoroutines(t, base+procs, when)
	}
}

func TestCoroHandedBackWhenBodyReturns(t *testing.T) {
	const procs = 4
	requireHandsBack(t, procs, "", func() error {
		k := NewKernel()
		for i := 0; i < procs; i++ {
			k.Spawn("sleeper", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Duration(i+1) * Microsecond)
				}
			})
		}
		return k.RunAll()
	})
}

func TestCoroHandedBackWhenParkedAtQueueEmpty(t *testing.T) {
	const procs = 4
	requireHandsBack(t, procs, `deadlock at 3us: no event is pending, and these processes wait on a signal: "stuck", "stuck", "stuck", "stuck"`, func() error {
		k := NewKernel()
		s := NewSignal(k)
		unwound := 0
		for i := 0; i < procs; i++ {
			k.Spawn("stuck", func(p *Proc) {
				defer func() { unwound++ }()
				p.Sleep(Duration(i) * Microsecond)
				p.Wait(s) // never pulsed
			})
		}
		err := k.RunAll()
		if unwound != procs {
			t.Fatalf("teardown unwound %d of %d parked processes", unwound, procs)
		}
		return err
	})
}

// TestCoroHandedBackWhenUnwindingParksAgain: a process whose deferred
// code waits again while teardown unwinds it is parked anew; teardown
// must take another pass instead of leaving it suspended.
func TestCoroHandedBackWhenUnwindingParksAgain(t *testing.T) {
	const procs = 2
	requireHandsBack(t, procs, `deadlock at 0ps: no event is pending, and these processes wait on a signal: "stubborn", "stubborn"`, func() error {
		k := NewKernel()
		s := NewSignal(k)
		for i := 0; i < procs; i++ {
			k.Spawn("stubborn", func(p *Proc) {
				defer p.Wait(s)
				p.Wait(s)
			})
		}
		return k.RunAll()
	})
}

func TestCoroHandedBackWhenWakeLiesPastHorizon(t *testing.T) {
	const procs = 4
	requireHandsBack(t, procs, "", func() error {
		k := NewKernel()
		for i := 0; i < procs; i++ {
			k.Spawn("late", func(p *Proc) {
				p.Sleep(Microsecond)
				p.Sleep(Millisecond) // past the horizon below
				t.Error("a sleep past the last Step horizon returned")
			})
		}
		if err := k.Step(Time(10 * Microsecond)); err != nil {
			return err
		}
		if at, ok := k.NextEventAt(); !ok || at <= Time(10*Microsecond) {
			t.Fatalf("next event = %v, %v; want a wake past the horizon", at, ok)
		}
		return k.Finish()
	})
}

// TestCoroHandedBackWhenNeverResumed: Finish with no Step resumes each
// process for the first time during teardown; one that parks there must
// still be unwound by a later pass.
func TestCoroHandedBackWhenNeverResumed(t *testing.T) {
	const procs = 4
	requireHandsBack(t, procs, "", func() error {
		k := NewKernel()
		s := NewSignal(k)
		for i := 0; i < procs; i++ {
			k.Spawn("unstarted", func(p *Proc) {
				if i%2 == 0 {
					p.Wait(s)
				} else {
					p.Sleep(Microsecond)
				}
				t.Error("a process blocked during teardown resumed normally")
			})
		}
		return k.Finish()
	})
}

func TestCoroHandedBackWhenProcessPanics(t *testing.T) {
	const procs = 4
	requireHandsBack(t, procs, `process "bad" panicked: boom`, func() error {
		k := NewKernel()
		s := NewSignal(k)
		k.Spawn("bad", func(p *Proc) {
			p.Sleep(Microsecond)
			panic("boom")
		})
		for i := 1; i < procs; i++ {
			k.Spawn("bystander", func(p *Proc) { p.Wait(s) })
		}
		return k.RunAll()
	})
}

func TestCoroHandedBackWhenDrivenCallbackPanics(t *testing.T) {
	const procs = 4
	requireHandsBack(t, procs, `event callback panicked (while process "driver" drove the event loop): callback boom`, func() error {
		k := NewKernel()
		s := NewSignal(k)
		for i := 1; i < procs; i++ {
			k.Spawn("bystander", func(p *Proc) {
				p.Sleep(20 * Microsecond)
				p.Wait(s)
			})
		}
		// Spawned last, the driver blocks last, so it is the one that
		// runs the 5us callback.
		k.Spawn("driver", func(p *Proc) { p.Sleep(10 * Microsecond) })
		k.At(Time(5*Microsecond), func() { panic("callback boom") })
		return k.RunAll()
	})
}

// TestCallbackPanicAfterProcessEndsReachesCaller: once a process's body
// has returned, the trampoline drives the loop on the Run caller's
// goroutine, so a callback that panics there reaches the caller as a
// panic, exactly as it would with no processes at all.
func TestCallbackPanicAfterProcessEndsReachesCaller(t *testing.T) {
	k := NewKernel()
	k.Spawn("short", func(p *Proc) { p.Sleep(Microsecond) })
	k.At(Time(2*Microsecond), func() { panic("callback boom") })
	defer func() {
		if r := recover(); r != "callback boom" {
			t.Fatalf("Run caller recovered %v, want the callback's panic", r)
		}
	}()
	_ = k.RunAll()
	t.Fatal("RunAll returned instead of panicking")
}

// TestCallbackPanicUnwindsBlockedProcesses: a callback panic that
// escapes the run must unwind every blocked process before it reaches
// the caller, on the panicked shard as on the others. Each run leaves a
// process parked on a Signal on every shard; were any left suspended,
// its coroutine would stay off the idle list for the rest of the
// program, and every run would add a goroutine.
func TestCallbackPanicUnwindsBlockedProcesses(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Put as many coroutines on the idle list as a run spawns
			// processes, so the runs below need no new goroutine.
			k := NewKernel()
			for i := 0; i < 2*shards; i++ {
				k.Spawn("warm", func(*Proc) {})
			}
			if err := k.RunAll(); err != nil {
				t.Fatal(err)
			}
			base, idleBase := runtime.NumGoroutine(), idleCoros()
			for i := 0; i < 3; i++ {
				panickingRun(t, shards)
			}
			settleGoroutines(t, base, "three panicking runs")
			if n := idleCoros(); n != idleBase {
				t.Fatalf("%d idle coroutines after three panicking runs, want %d", n, idleBase)
			}
		})
	}
}

// panickingRun runs a group whose last shard raises a callback panic on
// the trampoline, after that shard's short process has ended, and
// requires the panic to reach the caller unchanged.
func panickingRun(t *testing.T, shards int) {
	t.Helper()
	g := NewShardGroup(shards, Microsecond)
	for i := 0; i < shards; i++ {
		k := g.Shard(i).Kernel()
		s := NewSignal(k)
		k.Spawn("parked", func(p *Proc) { p.Wait(s) })
		k.Spawn("short", func(p *Proc) { p.Sleep(Microsecond) })
	}
	g.Shard(shards-1).Kernel().At(Time(2*Microsecond), func() { panic("callback boom") })
	defer func() {
		if r := recover(); r != "callback boom" {
			t.Fatalf("Run caller recovered %v, want the callback's panic", r)
		}
	}()
	_ = g.Run()
	t.Fatal("Run returned instead of panicking")
}

// pingCount is the shard-1 state the cross-shard posts update.
type pingCount struct {
	n int
	s *Signal
}

func pingArrive(a any) {
	c := a.(*pingCount)
	c.n++
	c.s.Pulse()
}

// TestCoroAcrossShards spawns processes on both shards of a group from
// the test goroutine; the shard goroutines then resume those
// coroutines, hand them back, and a second group reuses them.
func TestCoroAcrossShards(t *testing.T) {
	const pingers, pings, window = 2, 5, Microsecond
	const procs = pingers + 3 // two pongs and one waiter nothing wakes
	requireHandsBack(t, procs, `deadlock at 11us: no event is pending, and these processes wait on a signal: "waiter"`, func() error {
		g := NewShardGroup(2, window)
		sh0, sh1 := g.Shard(0), g.Shard(1)
		c := &pingCount{s: NewSignal(sh1.Kernel())}
		for i := 0; i < pingers; i++ {
			sh0.Kernel().Spawn("ping", func(p *Proc) {
				for j := 0; j < pings; j++ {
					p.Sleep(Duration(i+1) * Microsecond)
					sh0.Post(1, p.Now().Add(window), pingArrive, c)
				}
			})
		}
		var done []Time
		for i := 0; i < 2; i++ {
			sh1.Kernel().Spawn("pong", func(p *Proc) {
				for c.n < pingers*pings {
					p.Wait(c.s)
				}
				done = append(done, p.Now())
			})
		}
		sh1.Kernel().Spawn("waiter", func(p *Proc) { p.Wait(NewSignal(sh1.Kernel())) })
		err := g.Run()
		// The last ping leaves shard 0 at 10us (pinger 1's fifth sleep)
		// and lands one window later.
		want := Time(11 * Microsecond)
		if len(done) != 2 || done[0] != want || done[1] != want {
			t.Fatalf("pongs finished at %v, want both at %v", done, want)
		}
		return err
	})
}

// TestCoroIdleListConcurrentKernels runs kernels on several goroutines
// at once, as parallel workers do, so Spawns and hand-backs on the
// shared idle list interleave; each kernel must still see its own
// processes run to completion.
func TestCoroIdleListConcurrentKernels(t *testing.T) {
	const workers, kernels, procs = 4, 25, 3
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < kernels; i++ {
				k := NewKernel()
				done := 0
				for j := 0; j < procs; j++ {
					k.Spawn("p", func(p *Proc) {
						p.Sleep(Duration(j+1) * Microsecond)
						done++
					})
				}
				if err := k.RunAll(); err != nil {
					errs[w] = err
					return
				}
				if done != procs || k.Now() != Time(procs*Microsecond) {
					errs[w] = fmt.Errorf("kernel %d: %d of %d processes done at %v", i, done, procs, k.Now())
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
