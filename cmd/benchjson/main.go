// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark results can be archived next to figures and
// diffed across commits without scraping text. The document records the
// host facts go test prints (goos, goarch, cpu, pkg) and GOMAXPROCS next
// to the results. Repeated runs of the same
// benchmark (-count=N) are aggregated into one entry with their mean;
// runs that disagree on the reported unit set are skipped with a warning
// instead of averaged wrong.
//
// With -baseline it additionally acts as the CI performance gate:
// current results are compared against a committed baseline JSON and the
// process exits nonzero when any benchmark's ns/op regressed more than
// -tolerance (default 15%). It warns, naming both hosts, when the
// baseline was recorded on a different host.
//
// Usage:
//
//	go test -bench=. -benchmem . | benchjson -out results/bench.json
//	benchjson -in results/bench-engines.txt -out results/bench-engines.json
//	benchjson -in bench.txt -baseline results/bench-baseline.json -tolerance 0.15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	in := flag.String("in", "", "benchmark text output to parse (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON to gate ns/op regressions against")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional ns/op regression before the gate fails")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	rep, skipped, err := Parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, name := range skipped {
		fmt.Fprintf(os.Stderr, "warning: %s skipped: its runs report different unit sets and cannot be averaged\n", name)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		if *baseline == "" {
			os.Stdout.Write(data)
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
	if *baseline != "" {
		failed, err := runGate(rep, *baseline, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if failed {
			fmt.Fprintln(os.Stderr, "benchjson: performance gate failed")
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchjson: performance gate passed")
	}
}
