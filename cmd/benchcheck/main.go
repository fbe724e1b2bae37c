// Command benchcheck guards the allocation discipline of the hot-path
// benchmarks: it parses `go test -bench` output and fails if any
// benchmark's allocs/op regressed more than the threshold against the
// committed BENCH_*.json baselines.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchtime 100x . | tee bench.out
//	go run ./cmd/benchcheck [-baselines 'BENCH_*.json'] [-threshold 1.25] bench.out
//
// Wall-clock ns/op is deliberately not gated — CI machines vary too
// much — but allocs/op and B/op are close to repeatable. The widest
// spread is BenchmarkShardedDrive's, 5,983-5,984 allocs/op and
// 776,308-776,516 B/op, because the runtime allocates a descriptor for
// one of its two shard goroutines only when no exited one is free; the
// others' B/op moves by up to about 110 bytes. The default x1.25
// threshold absorbs that spread, so any growth beyond it is a real
// regression in the engine's pooling/reuse discipline (see DESIGN.md
// "Performance"). B/op is gated per benchmark: only once its baseline
// commits a bytes_per_op figure, so pre-existing baselines keep
// gating allocs alone.
//
// Baseline schema: each BENCH_*.json holds {"benchmarks": [{"name":
// ..., then either "after" or "baseline": {"allocs_per_op": N,
// "bytes_per_op": M}}]} (bytes_per_op optional).
// When several files name the same benchmark, the newest baseline
// wins; files are ordered shortest-name-first, then lexicographically,
// so BENCH_pr10.json correctly sorts after BENCH_pr5.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

type entry struct {
	file   string
	allocs float64
	// bytes gates B/op when the baseline carries bytes_per_op; hasBytes
	// false means the benchmark predates byte gating and only allocs
	// are checked.
	bytes    float64
	hasBytes bool
}

// loadBaselines walks the glob in name order and collects every
// benchmark's committed allocs/op, later files overriding earlier ones.
func loadBaselines(glob string) (map[string]entry, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no baseline files match %q", glob)
	}
	// Shortest-name-first, then lexicographic: for same-prefix files
	// this is numeric order (pr3 < pr5 < pr10), so later PRs override.
	sort.Slice(files, func(i, j int) bool {
		if len(files[i]) != len(files[j]) {
			return len(files[i]) < len(files[j])
		}
		return files[i] < files[j]
	})
	base := map[string]entry{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		type measure struct {
			Allocs *float64 `json:"allocs_per_op"`
			Bytes  *float64 `json:"bytes_per_op"`
		}
		var doc struct {
			Benchmarks []struct {
				Name     string   `json:"name"`
				After    *measure `json:"after"`
				Baseline *measure `json:"baseline"`
			} `json:"benchmarks"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		for _, b := range doc.Benchmarks {
			var m *measure
			switch {
			case b.After != nil && b.After.Allocs != nil:
				m = b.After
			case b.Baseline != nil && b.Baseline.Allocs != nil:
				m = b.Baseline
			}
			if b.Name == "" || m == nil {
				continue
			}
			e := entry{file: f, allocs: *m.Allocs}
			if m.Bytes != nil {
				e.bytes, e.hasBytes = *m.Bytes, true
			}
			base[b.Name] = e
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("no benchmark baselines found in %q", glob)
	}
	return base, nil
}

// benchLine matches `BenchmarkName-8   100   12345 ns/op ... 17 allocs/op`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s.*?([\d.]+)\s+allocs/op`)

// bytesField extracts the B/op column; it is matched separately from
// benchLine so benchmarks that predate byte gating still parse.
var bytesField = regexp.MustCompile(`(\S+)\s+B/op`)

// check scans `go test -bench` output against the baselines, writing
// one verdict line per gated benchmark, and returns the process exit
// code. Split from main so the gate's logic is testable end to end.
func check(in io.Reader, out, errw io.Writer, base map[string]entry, threshold float64) int {
	checked, failed := 0, 0
	seen := map[string]bool{}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		b, ok := base[name]
		if !ok {
			continue // benchmark without a committed baseline: informational only
		}
		seen[name] = true
		got, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			// The benchmark appeared but its allocs/op is unreadable:
			// fail loudly rather than letting it drop out of the gate.
			failed++
			fmt.Fprintf(out, "FAIL %s: unreadable allocs/op %q in the benchmark output\n", name, m[2])
			continue
		}
		checked++
		limit := b.allocs * threshold
		if got > limit {
			failed++
			fmt.Fprintf(out, "FAIL %s: %.0f allocs/op exceeds %.0f (baseline %.0f in %s, threshold x%.2f)\n",
				name, got, limit, b.allocs, b.file, threshold)
		} else {
			fmt.Fprintf(out, "ok   %s: %.0f allocs/op (baseline %.0f, limit %.0f)\n", name, got, b.allocs, limit)
		}

		// Bytes/op rides the same gate once a baseline commits to it:
		// same threshold, and a gated line whose B/op column is missing
		// or unreadable fails loudly rather than dropping the check.
		if !b.hasBytes {
			continue
		}
		bm := bytesField.FindStringSubmatch(sc.Text())
		if bm == nil {
			failed++
			fmt.Fprintf(out, "FAIL %s: baseline gates bytes_per_op but the benchmark line has no B/op column\n", name)
			continue
		}
		gotB, err := strconv.ParseFloat(bm[1], 64)
		if err != nil {
			failed++
			fmt.Fprintf(out, "FAIL %s: unreadable B/op %q in the benchmark output\n", name, bm[1])
			continue
		}
		limitB := b.bytes * threshold
		if gotB > limitB {
			failed++
			fmt.Fprintf(out, "FAIL %s: %.0f B/op exceeds %.0f (baseline %.0f in %s, threshold x%.2f)\n",
				name, gotB, limitB, b.bytes, b.file, threshold)
		} else {
			fmt.Fprintf(out, "ok   %s: %.0f B/op (baseline %.0f, limit %.0f)\n", name, gotB, b.bytes, limitB)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(errw, "benchcheck: reading input: %v\n", err)
		return 1
	}
	if checked == 0 && failed == 0 {
		fmt.Fprintln(errw, "benchcheck: no benchmark with a committed baseline appeared in the input")
		return 1
	}
	// A baselined benchmark that never appeared means the gate quietly
	// narrowed (renamed benchmark, trimmed -bench regex); fail so the
	// baseline and the run are reconciled explicitly.
	names := make([]string, 0, len(base))
	for name := range base {
		if !seen[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		failed++
		fmt.Fprintf(out, "FAIL %s: baselined in %s but absent from the benchmark run\n", name, base[name].file)
	}
	if failed > 0 {
		return 1
	}
	fmt.Fprintf(out, "benchcheck: %d benchmark(s) within the x%.2f allocation/byte budget\n", checked, threshold)
	return 0
}

func main() {
	glob := flag.String("baselines", "BENCH_*.json", "glob of committed baseline files")
	threshold := flag.Float64("threshold", 1.25, "fail when measured allocs/op exceed baseline by this factor")
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

	base, err := loadBaselines(*glob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
	os.Exit(check(in, os.Stdout, os.Stderr, base, *threshold))
}
