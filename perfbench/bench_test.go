package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4,
	// method="inclusive").
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.75, 2.5, 3.25},
		{[]float64{4, 1, 3, 2, 5}, 2, 3, 4},
		{[]float64{7}, 7, 7, 7},
		{[]float64{10, 0}, 2.5, 5, 7.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if median(c.xs) != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, median(c.xs), c.q2)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("quartiles reordered its input: %v", c.xs)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples = %v, want NaN", median(nil))
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.95); got != 10.5 {
		t.Errorf("p95 of 1..11 = %v, want 10.5", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {34, 70}, {100, 90}, {200, 95}, {999, 98}, {1000, 99}, {100000, 99},
	} {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d, 10) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule itself: at least ten samples beyond the percentile, and
	// fewer than ten beyond the next one up (unless capped at p99).
	for n := 20; n <= 3000; n++ {
		p := tailPercentile(n, 10)
		beyond := func(p int) float64 { return float64(n) * float64(100-p) / 100 }
		if beyond(p) < 10 {
			t.Fatalf("n=%d: p%d leaves %.1f samples beyond it", n, p, beyond(p))
		}
		if p < 99 && beyond(p+1) >= 10 {
			t.Fatalf("n=%d: p%d is not the highest; p%d leaves %.1f", n, p, p+1, beyond(p+1))
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{3, 12}
	if r.Value() != 0.25 {
		t.Errorf("Value = %v, want 0.25", r.Value())
	}
	if s := r.String(); !strings.Contains(s, "3") || !strings.Contains(s, "12") {
		t.Errorf("String %q does not show the base", s)
	}
	if (ratio{5, 0}).Value() != 0 {
		t.Errorf("a ratio over an empty base must read 0")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestManifestIsValid(t *testing.T) {
	m := buildManifest()
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not letters, digits, _, . and - starting with a letter or digit", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		checkName("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	maxBound := 0.0
	for _, d := range m.EndToEnd {
		checkName("end-to-end metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s is not valid", d.Unit, d.Name)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = math.Max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in s, lower is better")
	}
	for _, d := range m.EndToEnd {
		if d.Name == "setup_s" && d.Bound != maxBound {
			t.Errorf("setup_s must have the largest bound")
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range m.PerLayer {
		checkName("per-layer metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s is not valid", d.Unit, d.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
	}
	for _, a := range m.Command {
		if len(a) > 200 || strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("command argument %q", a)
		}
	}
	// Every run, with its set-up and overshoot, must fit the driver's
	// 4 + 22 x workloads runs into 3420 s with room for two builds.
	runs := 4 + 22*len(m.Workloads)
	if perRun := float64(m.RunSeconds) + 8; float64(runs)*perRun > 3420-600 {
		t.Errorf("%d runs of about %.0f s do not fit the time limit", runs, perRun)
	}
}

func TestManifestFileMatchesTables(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(want))
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; run perfbench -write-manifest from the repository root")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(got, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != "[command end_to_end paths per_layer run_seconds workloads]" {
		t.Errorf("manifest keys %v", names)
	}
}

func TestPoolOrder(t *testing.T) {
	a, b := poolOrder(7), poolOrder(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("the same seed gave two orders")
	}
	if fmt.Sprint(a) == fmt.Sprint(poolOrder(8)) {
		t.Errorf("seeds 7 and 8 gave the same order")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if s < 1 || s > poolSize || seen[s] {
			t.Fatalf("order %v is not a permutation of 1..%d", a, poolSize)
		}
		seen[s] = true
	}
}

func TestReferencesCoverThePool(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s <= poolSize; s++ {
		keys := map[string]string{
			"openloop-mesh8x8-knee": fmt.Sprint(s),
			"batch-mesh8x8-sparse":  fmt.Sprint(s),
		}
		for w, k := range keys {
			if _, ok := refs[w][k]; !ok {
				t.Errorf("no reference for %s input %s", w, k)
			}
		}
		for _, bench := range execBenchmarks {
			if _, ok := refs["exec-mesh4x4-cmp"][execKey(bench, s)]; !ok {
				t.Errorf("no reference for exec input %s", execKey(bench, s))
			}
		}
	}
}

func TestCheckOpRejectsDifferentOutput(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	want := refs["batch-mesh8x8-sparse"]["1"]
	if err := checkOp("batch-mesh8x8-sparse", simOp{key: "1", got: want}); err != nil {
		t.Errorf("matching output rejected: %v", err)
	}
	off := want
	off.Packets++
	if checkOp("batch-mesh8x8-sparse", simOp{key: "1", got: off}) == nil {
		t.Errorf("an output one packet off passed")
	}
	if checkOp("batch-mesh8x8-sparse", simOp{key: "no-such-input", got: want}) == nil {
		t.Errorf("an input without a reference passed")
	}
}
