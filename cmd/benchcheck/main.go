// Command benchcheck guards the allocation discipline of the hot-path
// benchmarks: it parses `go test -bench` output and fails unless the
// run holds exactly the benchmarks the committed gate file
// BENCH_gate.json lists, each within the threshold of its gated
// allocs/op and B/op.
//
// Usage, from the repository root (CI's commands):
//
//	go test -run '^$' -bench . -benchtime 100x . | tee bench.out
//	go test -run '^$' -bench . -benchtime 100x ./internal/myrinet | tee -a bench.out
//	go run ./cmd/benchcheck [-threshold 1.25] bench.out
//
// Gate schema: {"benchmarks": {"BenchmarkName": {"allocs_per_op": N,
// "bytes_per_op": M}}}. An entry lacking either number fails to load.
// The gate is the only list of what is gated: the two packages above
// declare exactly its benchmarks, and TestCommittedGate fails when a
// Benchmark function there is added or removed without it. A benchmark
// the gate lists that is absent from the run fails, and so does one in
// the run that the gate does not list.
//
// Wall-clock ns/op is deliberately not gated — CI machines vary too
// much — but allocs/op and B/op are close to repeatable. The widest
// spread is BenchmarkShardedDrive's: nineteen runs of one build on a
// 2-vCPU VM (go1.24) read 3,093-3,094 allocs/op and 729,571-729,888
// B/op, because the runtime allocates a descriptor for one of its two
// shard goroutines only when no exited one is free. The same runs of
// each other benchmark moved no allocs/op and at most 57 B/op. The
// default x1.25 threshold absorbs that spread, so any growth beyond it
// is a real regression in the engine's pooling/reuse discipline (see
// DESIGN.md "Performance").
//
// To re-baseline, run the two bench commands above, edit the numbers
// in BENCH_gate.json, and give the reason in CHANGES.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"slices"
	"strconv"
)

// gatePath is the committed gate, relative to the repository root.
const gatePath = "BENCH_gate.json"

// units are the gated result columns; a gate entry holds one number
// per unit, in this order.
var units = [2]string{"allocs/op", "B/op"}

// unitField extracts each unit's column from a result line.
var unitField = [2]*regexp.Regexp{
	regexp.MustCompile(`(\S+)\s+allocs/op`),
	regexp.MustCompile(`(\S+)\s+B/op`),
}

// benchLine matches a result line, `BenchmarkName-8   100   ...`: the
// name without its GOMAXPROCS suffix, then the iteration count.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s`)

// loadGate reads the gate file into one [allocs/op, B/op] pair per
// benchmark.
func loadGate(path string) (map[string][2]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks map[string]struct {
			Allocs *float64 `json:"allocs_per_op"`
			Bytes  *float64 `json:"bytes_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	gate := make(map[string][2]float64, len(doc.Benchmarks))
	for _, name := range slices.Sorted(maps.Keys(doc.Benchmarks)) {
		e := doc.Benchmarks[name]
		if e.Allocs == nil || e.Bytes == nil {
			return nil, fmt.Errorf("%s: %s needs both allocs_per_op and bytes_per_op", path, name)
		}
		gate[name] = [2]float64{*e.Allocs, *e.Bytes}
	}
	return gate, nil
}

// check scans `go test -bench` output against the gate, writing one
// verdict line per gated column, and returns the process exit code.
// Split from main so the gate's logic is testable end to end.
func check(in io.Reader, out, errw io.Writer, gate map[string][2]float64, threshold float64) int {
	checked, failed := 0, 0
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(out, "FAIL "+format+"\n", args...)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		seen[name] = true
		g, ok := gate[name]
		if !ok {
			fail("%s: in the benchmark run but not in %s", name, gatePath)
			continue
		}
		checked++
		// A missing or unreadable column fails loudly rather than
		// dropping out of the gate.
		for i, unit := range units {
			f := unitField[i].FindStringSubmatch(line)
			if f == nil {
				fail("%s: the benchmark line has no %s column", name, unit)
				continue
			}
			got, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				fail("%s: unreadable %s %q in the benchmark output", name, unit, f[1])
				continue
			}
			if limit := g[i] * threshold; got > limit {
				fail("%s: %.0f %s exceeds %.0f (baseline %.0f, threshold x%.2f)", name, got, unit, limit, g[i], threshold)
			} else {
				fmt.Fprintf(out, "ok   %s: %.0f %s (baseline %.0f, limit %.0f)\n", name, got, unit, g[i], limit)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(errw, "benchcheck: reading input: %v\n", err)
		return 1
	}
	// A gated benchmark that never appeared means the gate quietly
	// narrowed (renamed benchmark, trimmed -bench pattern); fail so the
	// gate and the run are reconciled explicitly.
	for _, name := range slices.Sorted(maps.Keys(gate)) {
		if !seen[name] {
			fail("%s: gated in %s but absent from the benchmark run", name, gatePath)
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Fprintf(out, "benchcheck: %d benchmark(s) within the x%.2f allocation/byte budget\n", checked, threshold)
	return 0
}

func main() {
	threshold := flag.Float64("threshold", 1.25, "fail when a benchmark's allocs/op or B/op exceeds its gate number by this factor")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	gate, err := loadGate(gatePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
	os.Exit(check(in, os.Stdout, os.Stderr, gate, *threshold))
}
