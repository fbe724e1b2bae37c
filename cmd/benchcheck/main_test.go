package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baselines(t *testing.T, files map[string]string) map[string]entry {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base, err := loadBaselines(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func runCheck(base map[string]entry, input string) (code int, out string) {
	var buf, errs bytes.Buffer
	code = check(strings.NewReader(input), &buf, &errs, base, 1.25)
	return code, buf.String() + errs.String()
}

func TestLoadBaselinesLaterPROverrides(t *testing.T) {
	base := baselines(t, map[string]string{
		"BENCH_pr5.json":  `{"benchmarks":[{"name":"BenchmarkDrive","baseline":{"allocs_per_op":100}}]}`,
		"BENCH_pr10.json": `{"benchmarks":[{"name":"BenchmarkDrive","after":{"allocs_per_op":40}}]}`,
	})
	e, ok := base["BenchmarkDrive"]
	if !ok || e.allocs != 40 || !strings.HasSuffix(e.file, "BENCH_pr10.json") {
		t.Fatalf("BenchmarkDrive = %+v, want 40 allocs from BENCH_pr10.json", e)
	}
}

func TestWithinBudgetPasses(t *testing.T) {
	base := baselines(t, map[string]string{
		"BENCH_pr1.json": `{"benchmarks":[{"name":"BenchmarkDrive","after":{"allocs_per_op":40}}]}`,
	})
	code, out := runCheck(base, "BenchmarkDrive-8  100  12345 ns/op  2048 B/op  42 allocs/op\n")
	if code != 0 || !strings.Contains(out, "ok   BenchmarkDrive") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

func TestRegressionFails(t *testing.T) {
	base := baselines(t, map[string]string{
		"BENCH_pr1.json": `{"benchmarks":[{"name":"BenchmarkDrive","after":{"allocs_per_op":40}}]}`,
	})
	code, out := runCheck(base, "BenchmarkDrive-8  100  12345 ns/op  99 allocs/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: 99 allocs/op exceeds 50") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

// TestMissingBenchmarkNamed is the gate's anti-narrowing guarantee: a
// baselined benchmark absent from the run must fail, and the failure
// must name the missing benchmark and its baseline file.
func TestMissingBenchmarkNamed(t *testing.T) {
	base := baselines(t, map[string]string{
		"BENCH_pr1.json": `{"benchmarks":[
			{"name":"BenchmarkDrive","after":{"allocs_per_op":40}},
			{"name":"BenchmarkGone","after":{"allocs_per_op":7}}]}`,
	})
	code, out := runCheck(base, "BenchmarkDrive-8  100  12345 ns/op  40 allocs/op\n")
	if code != 1 {
		t.Fatalf("missing benchmark passed; out:\n%s", out)
	}
	if !strings.Contains(out, "FAIL BenchmarkGone: baselined in") ||
		!strings.Contains(out, "BENCH_pr1.json but absent from the benchmark run") {
		t.Fatalf("failure does not name the missing benchmark:\n%s", out)
	}
}

// TestUnreadableAllocsFails pins the fix for a silent pass: a gated
// benchmark whose allocs/op does not parse used to count as seen and
// sail through; it must fail and say why.
func TestUnreadableAllocsFails(t *testing.T) {
	base := baselines(t, map[string]string{
		"BENCH_pr1.json": `{"benchmarks":[{"name":"BenchmarkDrive","after":{"allocs_per_op":40}}]}`,
	})
	code, out := runCheck(base, "BenchmarkDrive-8  100  12345 ns/op  1.2.3 allocs/op\n")
	if code != 1 || !strings.Contains(out, `FAIL BenchmarkDrive: unreadable allocs/op "1.2.3"`) {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
	// And it must not double-report as absent from the run.
	if strings.Contains(out, "absent from the benchmark run") {
		t.Fatalf("unreadable line also reported missing:\n%s", out)
	}
}

// bytesBase is a baseline that commits to both allocs and bytes.
func bytesBase(t *testing.T) map[string]entry {
	t.Helper()
	return baselines(t, map[string]string{
		"BENCH_pr1.json": `{"benchmarks":[{"name":"BenchmarkDrive","after":{"allocs_per_op":40,"bytes_per_op":2048}}]}`,
	})
}

func TestBytesWithinBudgetPasses(t *testing.T) {
	code, out := runCheck(bytesBase(t), "BenchmarkDrive-8  100  12345 ns/op  2100 B/op  40 allocs/op\n")
	if code != 0 || !strings.Contains(out, "ok   BenchmarkDrive: 2100 B/op (baseline 2048, limit 2560)") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

func TestBytesRegressionFails(t *testing.T) {
	code, out := runCheck(bytesBase(t), "BenchmarkDrive-8  100  12345 ns/op  4096 B/op  40 allocs/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: 4096 B/op exceeds 2560") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

// A baseline that gates bytes must not let the check drop out when the
// benchmark line omits or garbles the B/op column.
func TestBytesMissingOrUnreadableFails(t *testing.T) {
	code, out := runCheck(bytesBase(t), "BenchmarkDrive-8  100  12345 ns/op  40 allocs/op\n")
	if code != 1 || !strings.Contains(out, "FAIL BenchmarkDrive: baseline gates bytes_per_op but the benchmark line has no B/op column") {
		t.Fatalf("missing column: code = %d, out:\n%s", code, out)
	}
	code, out = runCheck(bytesBase(t), "BenchmarkDrive-8  100  12345 ns/op  1.2.3 B/op  40 allocs/op\n")
	if code != 1 || !strings.Contains(out, `FAIL BenchmarkDrive: unreadable B/op "1.2.3"`) {
		t.Fatalf("unreadable column: code = %d, out:\n%s", code, out)
	}
}

// A baseline without bytes_per_op keeps gating allocs alone, whatever
// the run's B/op column says.
func TestBytesUngatedWithoutBaseline(t *testing.T) {
	base := baselines(t, map[string]string{
		"BENCH_pr1.json": `{"benchmarks":[{"name":"BenchmarkDrive","after":{"allocs_per_op":40}}]}`,
	})
	code, out := runCheck(base, "BenchmarkDrive-8  100  12345 ns/op  999999 B/op  40 allocs/op\n")
	if code != 0 || strings.Contains(out, "B/op (baseline") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}

func TestNoGatedBenchmarksFails(t *testing.T) {
	base := baselines(t, map[string]string{
		"BENCH_pr1.json": `{"benchmarks":[{"name":"BenchmarkDrive","after":{"allocs_per_op":40}}]}`,
	})
	code, out := runCheck(base, "PASS\nok  fm  0.5s\n")
	if code != 1 || !strings.Contains(out, "no benchmark with a committed baseline") {
		t.Fatalf("code = %d, out:\n%s", code, out)
	}
}
