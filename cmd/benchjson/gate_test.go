package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 2000},
		{Name: "BenchmarkRetired", NsPerOp: 500},
	}
	current := []Result{
		{Name: "BenchmarkA", NsPerOp: 1100}, // +10%: within a 15% tolerance
		{Name: "BenchmarkB", NsPerOp: 2500}, // +25%: regression
		{Name: "BenchmarkNew", NsPerOp: 42},
	}
	regs, onlyBase, onlyCur := gate(current, baseline, 0.15)
	if len(regs) != 2 {
		t.Fatalf("got %d comparisons, want 2: %+v", len(regs), regs)
	}
	// Sorted worst-first: B's +25% leads.
	if regs[0].Name != "BenchmarkB" || !regs[0].Exceeded {
		t.Errorf("worst regression = %+v, want BenchmarkB exceeded", regs[0])
	}
	if regs[1].Name != "BenchmarkA" || regs[1].Exceeded {
		t.Errorf("BenchmarkA = %+v, want within tolerance", regs[1])
	}
	if !reflect.DeepEqual(onlyBase, []string{"BenchmarkRetired"}) {
		t.Errorf("onlyBase = %v", onlyBase)
	}
	if !reflect.DeepEqual(onlyCur, []string{"BenchmarkNew"}) {
		t.Errorf("onlyCur = %v", onlyCur)
	}
}

// TestGateComparesMinOfRuns: when min ns/op was recorded the gate must
// compare mins, not means — a noisy-mean run whose best iteration still
// matches the baseline is not a regression — and fall back to the mean
// against baselines written before min tracking.
func TestGateComparesMinOfRuns(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkNoisy", NsPerOp: 1200, MinNsPerOp: 1000},
		{Name: "BenchmarkLegacy", NsPerOp: 1000}, // pre-min baseline entry
	}
	current := []Result{
		// Mean +150% (co-tenant noise) but the best run only +5%: pass.
		{Name: "BenchmarkNoisy", NsPerOp: 3000, MinNsPerOp: 1050},
		// Legacy comparison uses the means: +25% fails at 15%.
		{Name: "BenchmarkLegacy", NsPerOp: 1250, MinNsPerOp: 1250},
	}
	regs, _, _ := gate(current, baseline, 0.15)
	if len(regs) != 2 {
		t.Fatalf("got %d comparisons, want 2: %+v", len(regs), regs)
	}
	byName := map[string]Regression{}
	for _, r := range regs {
		byName[r.Name] = r
	}
	if r := byName["BenchmarkNoisy"]; r.Exceeded || r.Base != 1000 || r.Current != 1050 {
		t.Errorf("BenchmarkNoisy = %+v, want min-vs-min 1000->1050 within tolerance", r)
	}
	if r := byName["BenchmarkLegacy"]; !r.Exceeded || r.Base != 1000 {
		t.Errorf("BenchmarkLegacy = %+v, want mean fallback 1000->1250 exceeded", r)
	}
}

func TestGateImprovementAndExactMatch(t *testing.T) {
	baseline := []Result{
		{Name: "BenchmarkFast", NsPerOp: 1000},
		{Name: "BenchmarkSame", NsPerOp: 300},
		{Name: "BenchmarkZero", NsPerOp: 0}, // degenerate baseline: never compared
	}
	current := []Result{
		{Name: "BenchmarkFast", NsPerOp: 500}, // 2x improvement
		{Name: "BenchmarkSame", NsPerOp: 300},
		{Name: "BenchmarkZero", NsPerOp: 100},
	}
	regs, _, _ := gate(current, baseline, 0.15)
	if len(regs) != 2 {
		t.Fatalf("got %d comparisons, want 2 (zero baseline skipped): %+v", len(regs), regs)
	}
	for _, r := range regs {
		if r.Exceeded {
			t.Errorf("%s flagged as regression: %+v", r.Name, r)
		}
	}
}

func TestHostWarning(t *testing.T) {
	here := Host{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon A", Pkg: "noceval", GOMAXPROCS: 2}
	other := func(f func(*Host)) Host { h := here; f(&h); return h }
	cases := []struct {
		name     string
		baseline Host
		warn     bool
	}{
		{"same host", here, false},
		{"other cpu", other(func(h *Host) { h.CPU = "Epyc B" }), true},
		{"other GOMAXPROCS", other(func(h *Host) { h.GOMAXPROCS = 8 }), true},
		{"other arch", other(func(h *Host) { h.GOARCH = "arm64" }), true},
		{"other os", other(func(h *Host) { h.GOOS = "darwin" }), true},
		{"other package", other(func(h *Host) { h.Pkg = "noceval/internal/router" }), true},
		{"baseline without host facts", Host{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := hostWarning(here, c.baseline)
			if (w != "") != c.warn {
				t.Fatalf("hostWarning = %q, want warning %v", w, c.warn)
			}
			if c.warn && (!strings.Contains(w, c.baseline.String()) || !strings.Contains(w, here.String())) {
				t.Errorf("warning %q does not name both hosts", w)
			}
		})
	}
}

func TestReadReportBothFormats(t *testing.T) {
	legacy := []byte(`[{"name": "BenchmarkA", "runs": 1, "iterations": 3, "ns_per_op": 10}]`)
	rep, err := readReport(legacy)
	if err != nil || len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkA" || rep.Host != (Host{}) {
		t.Fatalf("legacy array: %+v, %v", rep, err)
	}
	cur := []byte(`{"host": {"goos": "linux", "gomaxprocs": 2}, "benchmarks": [{"name": "BenchmarkB", "ns_per_op": 5}]}`)
	rep, err = readReport(cur)
	if err != nil || len(rep.Benchmarks) != 1 || rep.Host != (Host{GOOS: "linux", GOMAXPROCS: 2}) {
		t.Fatalf("report object: %+v, %v", rep, err)
	}
}
