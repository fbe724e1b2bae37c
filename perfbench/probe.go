package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fm/internal/cost"
	"fm/internal/myrinet"
	"fm/internal/sim"
	"fm/internal/stats"
	"fm/internal/workload"
)

// probe wraps a FabricSpec's Build so a driver that hides its stack
// still shows the benchmark its kernels and fabrics, and so the host
// instant of the first simulated event splits a driver call into
// set-up (fabric, cluster, per-rank sequences) and simulation.
//
// The wrapper posts one event at virtual time zero on every kernel
// before any model object exists. It runs first, changes no model
// state, and only shifts every later event's sequence number by one, so
// the simulation is unchanged; the kernel's EventsRun counts it, which
// simEvents subtracts.
type probe struct {
	fabricBuild time.Duration
	kernels     []*sim.Kernel
	fabs        []*myrinet.Fabric

	mu       sync.Mutex // shard kernels fire their probes concurrently
	first    time.Time
	cpuFirst time.Duration
}

func (pb *probe) wrap(spec workload.FabricSpec) workload.FabricSpec {
	build := spec.Build
	spec.Build = func(k *sim.Kernel, p *cost.Params) *myrinet.Fabric {
		t := time.Now()
		f := build(k, p)
		pb.fabricBuild += time.Since(t)
		pb.kernels = append(pb.kernels, k)
		pb.fabs = append(pb.fabs, f)
		k.At(0, pb.fire)
		return f
	}
	return spec
}

func (pb *probe) fire() {
	now, cpu := time.Now(), cpuTime()
	pb.mu.Lock()
	if pb.first.IsZero() {
		pb.first, pb.cpuFirst = now, cpu
	}
	pb.mu.Unlock()
}

// simEvents is the events the model ran on the probed kernels.
func (pb *probe) simEvents() uint64 {
	var n uint64
	for _, k := range pb.kernels {
		n += k.EventsRun() - 1
	}
	return n
}

// span is one driver call split at its first simulated event.
type span struct {
	setup, wall, cpu time.Duration
}

// split closes a driver call that started at start (cpu0 CPU seconds).
func (pb *probe) split(start time.Time, cpu0 time.Duration) span {
	end, cpu := time.Now(), cpuTime()
	if pb.first.IsZero() { // nothing was simulated
		return span{setup: end.Sub(start)}
	}
	return span{setup: pb.first.Sub(start), wall: end.Sub(pb.first), cpu: cpu - pb.cpuFirst}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current RSS, so the next peakRSSMB reads the peak of
// what ran in between.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// fingerprint hashes simulated results (counters, virtual times, fitted
// Table 4 cells) in a fixed order. Host times never enter it, so it
// repeats exactly across runs of one commit: a simulator-only speed-up
// leaves it unchanged and a modelling change moves it.
type fingerprint struct {
	b strings.Builder
}

func (f *fingerprint) add(name string, vals ...any) {
	f.b.WriteString(name)
	for _, v := range vals {
		f.b.WriteByte(' ')
		switch x := v.(type) {
		case float64:
			f.b.WriteString(strconv.FormatUint(math.Float64bits(x), 16))
		default:
			fmt.Fprint(&f.b, x)
		}
	}
	f.b.WriteByte('\n')
}

func (f *fingerprint) hist(name string, h *stats.Histogram) {
	f.add(name, h.Count(), int64(h.Min()), int64(h.Max()), int64(h.Mean()),
		int64(h.Percentile(0.5)), int64(h.Percentile(0.99)), int64(h.Percentile(0.999)))
}

func (f *fingerprint) fabric(name string, fab *myrinet.Fabric) {
	s := fab.Stats()
	f.add(name, s.Packets, s.PayloadBytes, s.WireBytes, s.ByType, s.CrossPosted, s.CrossResumed)
}

func (f *fingerprint) sum() string {
	h := fnv.New64a()
	h.Write([]byte(f.b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}
