package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Regression is one benchmark's current-vs-baseline comparison.
type Regression struct {
	Name     string
	Base     float64 // baseline ns/op (min across runs when recorded)
	Current  float64 // current ns/op (min across runs when recorded)
	Delta    float64 // (Current-Base)/Base
	Exceeded bool    // Delta above the tolerance
}

// gateNs is the statistic the gate compares: the fastest run when the
// input recorded one, else the mean (baselines written before min
// tracking). Min-of-N is deliberate — scheduler and co-tenant
// interference only ever adds time, so on a shared host the min tracks
// the code while the mean tracks the neighbours.
func gateNs(r Result) float64 {
	if r.MinNsPerOp > 0 {
		return r.MinNsPerOp
	}
	return r.NsPerOp
}

// gate compares current results against a committed baseline: every
// benchmark present in both is checked for an ns/op regression beyond
// tol (a fraction, e.g. 0.15 = +15%), comparing min-of-runs (see
// gateNs). Benchmarks that exist only on one side are reported but
// never fail the gate — adding or retiring a benchmark must not
// require a baseline update in the same commit. Returns the
// per-benchmark comparisons (sorted worst-first) and the names present
// in only one input.
func gate(current, baseline []Result, tol float64) (regs []Regression, onlyBase, onlyCur []string) {
	cur := make(map[string]Result, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	seen := make(map[string]bool, len(baseline))
	for _, b := range baseline {
		seen[b.Name] = true
		c, ok := cur[b.Name]
		if !ok {
			onlyBase = append(onlyBase, b.Name)
			continue
		}
		bns, cns := gateNs(b), gateNs(c)
		if bns <= 0 {
			continue
		}
		delta := (cns - bns) / bns
		regs = append(regs, Regression{
			Name:     b.Name,
			Base:     bns,
			Current:  cns,
			Delta:    delta,
			Exceeded: delta > tol,
		})
	}
	for _, r := range current {
		if !seen[r.Name] {
			onlyCur = append(onlyCur, r.Name)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Delta > regs[j].Delta })
	sort.Strings(onlyBase)
	sort.Strings(onlyCur)
	return regs, onlyBase, onlyCur
}

// hostWarning returns the gate's warning when the baseline was measured
// on a different host than the current run, naming both, or "" when the
// facts match. A difference never fails the gate: the numbers are still
// compared, but the reader is told they may not compare like with like.
func hostWarning(current, baseline Host) string {
	if current == baseline {
		return ""
	}
	return fmt.Sprintf("warning: baseline host differs from this host, so ns/op may not compare like with like\n  baseline: %s\n  current:  %s", baseline, current)
}

// readReport decodes a benchjson document. Documents written before host
// facts were recorded are a bare result array and yield a zero Host.
func readReport(data []byte) (Report, error) {
	var rep Report
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		err := json.Unmarshal(data, &rep.Benchmarks)
		return rep, err
	}
	err := json.Unmarshal(data, &rep)
	return rep, err
}

// runGate loads the baseline, compares, prints the report to stderr, and
// reports whether any benchmark regressed beyond the tolerance.
func runGate(current Report, baselinePath string, tol float64) (failed bool, err error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, err
	}
	baseline, err := readReport(data)
	if err != nil {
		return false, fmt.Errorf("benchjson: baseline %s: %w", baselinePath, err)
	}
	if w := hostWarning(current.Host, baseline.Host); w != "" {
		fmt.Fprintln(os.Stderr, w)
	}
	regs, onlyBase, onlyCur := gate(current.Benchmarks, baseline.Benchmarks, tol)
	for _, r := range regs {
		status := "ok  "
		if r.Exceeded {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%s %-60s %12.0f -> %12.0f ns/op  %+6.1f%% (tolerance %+.0f%%)\n",
			status, r.Name, r.Base, r.Current, r.Delta*100, tol*100)
	}
	for _, name := range onlyBase {
		fmt.Fprintf(os.Stderr, "note: %s is in the baseline but was not run\n", name)
	}
	for _, name := range onlyCur {
		fmt.Fprintf(os.Stderr, "note: %s has no baseline entry (new benchmark?)\n", name)
	}
	return failed, nil
}
