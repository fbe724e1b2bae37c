package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadBody loads a gate file with the given body through the real loader.
func loadBody(t *testing.T, body string) (map[string][2]float64, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), gatePath)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return loadGate(path)
}

func gateOf(t *testing.T, body string) map[string][2]float64 {
	t.Helper()
	gate, err := loadBody(t, body)
	if err != nil {
		t.Fatal(err)
	}
	return gate
}

// driveGate gates one benchmark at 40 allocs/op and 2048 B/op, so the
// x1.25 limits are 50 and 2560.
func driveGate(t *testing.T) map[string][2]float64 {
	t.Helper()
	return gateOf(t, `{"benchmarks":{"BenchmarkDrive":{"allocs_per_op":40,"bytes_per_op":2048}}}`)
}

func runCheck(gate map[string][2]float64, input string) (code int, out string) {
	var buf, errs bytes.Buffer
	code = check(strings.NewReader(input), &buf, &errs, gate)
	return code, buf.String() + errs.String()
}

// TestCommittedGate holds the committed gate to the benchmarks CI runs:
// its names must equal the Benchmark functions declared in the test
// files of the root package and internal/myrinet, the two packages CI
// benchmarks with -bench ., so a benchmark added, renamed or deleted
// without the gate fails go test, not only CI's bench step.
func TestCommittedGate(t *testing.T) {
	gate, err := loadGate(filepath.Join("..", "..", gatePath))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{"../..", "../../internal/myrinet"} {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no test files in %s (%v)", dir, err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
					declared[fn.Name.Name] = true
				}
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(declared)) {
		if _, ok := gate[name]; !ok {
			t.Errorf("%s is declared but not in %s", name, gatePath)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(gate)) {
		if !declared[name] {
			t.Errorf("%s is in %s but no benchmarked package declares it", name, gatePath)
		}
	}
}

// TestGateEntryMissingBytesFails: an entry must carry both numbers, and
// the load error names the benchmark that lacks one.
func TestGateEntryMissingBytesFails(t *testing.T) {
	_, err := loadBody(t, `{"benchmarks":{
		"BenchmarkDrive":{"allocs_per_op":40,"bytes_per_op":2048},
		"BenchmarkHalf":{"allocs_per_op":7}}}`)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkHalf needs both allocs_per_op and bytes_per_op") {
		t.Fatalf("err = %v, want a load error naming BenchmarkHalf", err)
	}
}

func TestWithinBudgetPasses(t *testing.T) {
	code, out := runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  2048 B/op  42 allocs/op\n")
	if code != 0 || !strings.Contains(out, "ok   BenchmarkDrive: 42 allocs/op") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

func TestRegressionFails(t *testing.T) {
	code, out := runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  2048 B/op  99 allocs/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: 99 allocs/op exceeds 50") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

// TestMissingBenchmarkNamed is the gate's anti-narrowing guarantee: a
// gated benchmark absent from the run must fail, and the failure must
// name the missing benchmark.
func TestMissingBenchmarkNamed(t *testing.T) {
	gate := gateOf(t, `{"benchmarks":{
		"BenchmarkDrive":{"allocs_per_op":40,"bytes_per_op":2048},
		"BenchmarkGone":{"allocs_per_op":7,"bytes_per_op":512}}}`)
	code, out := runCheck(gate, "BenchmarkDrive-8  100  12345 ns/op  2048 B/op  40 allocs/op\n")
	if code != 1 {
		t.Fatalf("missing benchmark passed; out:\n%s", out)
	}
	if !strings.Contains(out, "FAIL BenchmarkGone: gated in BENCH_gate.json but absent from the benchmark run") {
		t.Fatalf("failure does not name the missing benchmark:\n%s", out)
	}
}

// TestUngatedBenchmarkNamed: a benchmark in the run that the gate does
// not list fails by name, so the gate stays the list of what CI runs.
func TestUngatedBenchmarkNamed(t *testing.T) {
	code, out := runCheck(driveGate(t),
		"BenchmarkDrive-8  100  12345 ns/op  2048 B/op  40 allocs/op\n"+
			"BenchmarkNew-8  100  999 ns/op  16 B/op  1 allocs/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkNew: in the benchmark run but not in BENCH_gate.json") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

// TestUnreadableAllocsFails pins the fix for a silent pass: a gated
// benchmark whose allocs/op does not parse used to count as seen and
// sail through; it must fail and say why.
func TestUnreadableAllocsFails(t *testing.T) {
	code, out := runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  2048 B/op  1.2.3 allocs/op\n")
	if code != 1 || !strings.Contains(out, `FAIL BenchmarkDrive: unreadable allocs/op "1.2.3"`) {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
	// And it must not double-report as absent from the run.
	if strings.Contains(out, "absent from the benchmark run") {
		t.Fatalf("unreadable line also reported missing:\n%s", out)
	}
}

func TestBytesWithinBudgetPasses(t *testing.T) {
	code, out := runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  2100 B/op  40 allocs/op\n")
	if code != 0 || !strings.Contains(out, "ok   BenchmarkDrive: 2100 B/op (baseline 2048, limit 2560)") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

func TestBytesRegressionFails(t *testing.T) {
	code, out := runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  4096 B/op  40 allocs/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: 4096 B/op exceeds 2560") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

// Every gated column must be present and readable; a benchmark line that
// omits or garbles one fails rather than dropping that check.
func TestBytesMissingOrUnreadableFails(t *testing.T) {
	code, out := runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  40 allocs/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: the benchmark line has no B/op column") {
		t.Fatalf("missing B/op: code = %d, out:\n%s", code, out)
	}
	code, out = runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  1.2.3 B/op  40 allocs/op\n")
	if code != 1 || !strings.Contains(out, `FAIL BenchmarkDrive: unreadable B/op "1.2.3"`) {
		t.Fatalf("unreadable B/op: code = %d, out:\n%s", code, out)
	}
	code, out = runCheck(driveGate(t), "BenchmarkDrive-8  100  12345 ns/op  2048 B/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: the benchmark line has no allocs/op column") {
		t.Fatalf("missing allocs/op: code = %d, out:\n%s", code, out)
	}
}

// A run with no benchmark in it fails, naming every gated benchmark.
func TestNoGatedBenchmarksFails(t *testing.T) {
	code, out := runCheck(driveGate(t), "PASS\nok  fm  0.5s\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: gated in BENCH_gate.json but absent from the benchmark run") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}
