package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: noceval
cpu: Some CPU @ 2.00GHz
BenchmarkIdleOpenLoopLowLoad/engine=fullscan-8         	      10	  40000000 ns/op	        12.50 sim-Mcycles/s	 1048576 B/op	    2048 allocs/op
BenchmarkIdleOpenLoopLowLoad/engine=fullscan-8         	      10	  60000000 ns/op	        12.70 sim-Mcycles/s	 1048576 B/op	    2050 allocs/op
BenchmarkIdleOpenLoopLowLoad/engine=activeset-8        	      10	   5000000 ns/op	       100.0 sim-Mcycles/s	  524288 B/op	    1024 allocs/op
BenchmarkStepObsDisabled-8                             	 1000000	      1050 ns/op
PASS
ok  	noceval	12.345s
`

func TestParse(t *testing.T) {
	rep, skipped, err := Parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	wantHost := Host{GOOS: "linux", GOARCH: "amd64", CPU: "Some CPU @ 2.00GHz", Pkg: "noceval", GOMAXPROCS: 8}
	if rep.Host != wantHost {
		t.Errorf("host = %+v, want %+v", rep.Host, wantHost)
	}
	results := rep.Benchmarks
	if len(skipped) != 0 {
		t.Fatalf("skipped %v from consistent output", skipped)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(results), results)
	}

	full := results[0]
	if full.Name != "BenchmarkIdleOpenLoopLowLoad/engine=fullscan" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped, subtest kept)", full.Name)
	}
	if full.Runs != 2 {
		t.Errorf("runs = %d, want 2 (repeated -count lines aggregate)", full.Runs)
	}
	if full.NsPerOp != 50000000 {
		t.Errorf("ns/op = %g, want the mean 5e7", full.NsPerOp)
	}
	if full.MinNsPerOp != 40000000 {
		t.Errorf("min ns/op = %g, want the fastest run 4e7", full.MinNsPerOp)
	}
	if full.AllocsPerOp != 2049 {
		t.Errorf("allocs/op = %g, want 2049", full.AllocsPerOp)
	}
	if got := full.Metrics["sim-Mcycles/s"]; math.Abs(got-12.6) > 1e-9 {
		t.Errorf("custom metric = %g, want 12.6", got)
	}

	active := results[1]
	if active.Name != "BenchmarkIdleOpenLoopLowLoad/engine=activeset" || active.Runs != 1 {
		t.Errorf("second benchmark = %+v", active)
	}

	// A plain line without -benchmem omits the memory fields.
	plain := results[2]
	if plain.Name != "BenchmarkStepObsDisabled" || plain.NsPerOp != 1050 {
		t.Errorf("plain benchmark = %+v", plain)
	}
	if plain.BytesPerOp != 0 || plain.AllocsPerOp != 0 || plain.Metrics != nil {
		t.Errorf("plain benchmark should have no memory/custom fields: %+v", plain)
	}
}

func TestParseEmpty(t *testing.T) {
	rep, skipped, err := Parse(strings.NewReader("PASS\nok noceval 0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 || len(skipped) != 0 || rep.Host != (Host{}) {
		t.Fatalf("parsed %d benchmarks (skipped %v, host %+v) from empty output", len(rep.Benchmarks), skipped, rep.Host)
	}
}

// TestParseMixedUnits: runs of one benchmark that disagree on the unit
// set must be skipped entirely rather than averaged — a missing value
// would silently dilute every mean — while consistent benchmarks in the
// same stream still parse.
func TestParseMixedUnits(t *testing.T) {
	cases := []struct {
		name        string
		input       string
		wantNames   []string
		wantSkipped []string
	}{
		{
			name: "benchmem run concatenated with plain run",
			input: "BenchmarkMixed-8 10 100 ns/op 64 B/op 2 allocs/op\n" +
				"BenchmarkMixed-8 10 300 ns/op\n" +
				"BenchmarkClean-8 10 50 ns/op\n" +
				"BenchmarkClean-8 10 70 ns/op\n",
			wantNames:   []string{"BenchmarkClean"},
			wantSkipped: []string{"BenchmarkMixed"},
		},
		{
			name: "custom metric present in only some runs",
			input: "BenchmarkMetric-8 10 100 ns/op 12.5 sim-Mcycles/s\n" +
				"BenchmarkMetric-8 10 200 ns/op\n",
			wantNames:   nil,
			wantSkipped: []string{"BenchmarkMetric"},
		},
		{
			name: "same units in every run",
			input: "BenchmarkOK-8 10 100 ns/op 64 B/op 2 allocs/op\n" +
				"BenchmarkOK-8 10 200 ns/op 64 B/op 2 allocs/op\n",
			wantNames:   []string{"BenchmarkOK"},
			wantSkipped: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, skipped, err := Parse(strings.NewReader(c.input))
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, r := range rep.Benchmarks {
				names = append(names, r.Name)
			}
			if !reflect.DeepEqual(names, c.wantNames) {
				t.Errorf("parsed %v, want %v", names, c.wantNames)
			}
			if !reflect.DeepEqual(skipped, c.wantSkipped) {
				t.Errorf("skipped %v, want %v", skipped, c.wantSkipped)
			}
		})
	}
	// The clean benchmark's mean must come from its own runs only.
	rep, _, err := Parse(strings.NewReader(cases[0].input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].NsPerOp != 60 {
		t.Errorf("clean benchmark mean = %+v, want ns/op 60", rep.Benchmarks)
	}
}

func TestStripProcs(t *testing.T) {
	cases := []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkFoo-8", "BenchmarkFoo", 8},
		{"BenchmarkFoo", "BenchmarkFoo", 1},
		{"BenchmarkFoo/rate=0.5-16", "BenchmarkFoo/rate=0.5", 16},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 1},
	}
	for _, c := range cases {
		if name, procs := splitProcs(c.in); name != c.name || procs != c.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", c.in, name, procs, c.name, c.procs)
		}
	}
}

// TestParseHostFacts: the header facts of every benchmarked package are
// kept, a repeated value once.
func TestParseHostFacts(t *testing.T) {
	in := "goos: linux\ngoarch: amd64\npkg: noceval\ncpu: A\nBenchmarkA-2 1 10 ns/op\n" +
		"goos: linux\ngoarch: amd64\npkg: noceval/cmd/x\ncpu: A\nBenchmarkB-2 1 10 ns/op\n"
	rep, _, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Host{GOOS: "linux", GOARCH: "amd64", CPU: "A", Pkg: "noceval,noceval/cmd/x", GOMAXPROCS: 2}
	if rep.Host != want {
		t.Errorf("host = %+v, want %+v", rep.Host, want)
	}
}
