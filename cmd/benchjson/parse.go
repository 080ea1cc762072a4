package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Report is the JSON document benchjson writes: the host the benchmarks
// ran on and their aggregated results.
type Report struct {
	Host       Host     `json:"host"`
	Benchmarks []Result `json:"benchmarks"`
}

// Host holds the facts go test prints before its results (goos, goarch,
// cpu, pkg) plus GOMAXPROCS, read from the -N suffix of the result names
// (go test omits the suffix when GOMAXPROCS is 1). A baseline measured on
// a different host is not comparable like with like.
type Host struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	Pkg        string `json:"pkg,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// String renders the host in one line for gate warnings.
func (h Host) String() string {
	if h == (Host{}) {
		return "unrecorded host"
	}
	return fmt.Sprintf("%s/%s, cpu %q, pkg %s, GOMAXPROCS=%d", h.GOOS, h.GOARCH, h.CPU, h.Pkg, h.GOMAXPROCS)
}

// Result is one benchmark, aggregated over its repeated runs (-count=N):
// every per-op value is the mean across runs.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped, sub-
	// benchmark path included (e.g. "BenchmarkIdleBatchTail/engine=activeset").
	Name string `json:"name"`
	// Runs is the number of result lines aggregated into this entry.
	Runs int `json:"runs"`
	// Iterations is the mean b.N across runs.
	Iterations float64 `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// MinNsPerOp is the fastest run. The performance gate compares mins,
	// not means: interference from a shared host only ever adds time, so
	// min-of-N approximates the machine's true cost where the mean tracks
	// whatever the co-tenants were doing during the window.
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
	// BytesPerOp and AllocsPerOp are present only with -benchmem.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any custom b.ReportMetric units (e.g. "sim-cycles/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// accum sums one benchmark's runs before averaging.
type accum struct {
	runs                     int
	iters, ns, bytes, allocs float64
	nsMin                    float64
	hasBytes, hasAllocs      bool
	metrics                  map[string]float64
	// units is the unit signature of the first run; mixed flips when a
	// later run reports a different unit set, which would make the summed
	// means silently wrong (a value missing from some runs still divides
	// by the total run count). Mixed benchmarks are dropped and reported.
	units string
	mixed bool
}

// Parse reads `go test -bench` output and returns its host facts and one
// aggregated Result per benchmark name, in first-seen order, plus the
// names of benchmarks
// that were skipped because their repeated runs disagreed on the set of
// reported units (e.g. a -benchmem run concatenated with a plain one) —
// averaging across different unit sets would misreport every mean.
// Non-benchmark lines (headers, PASS/ok trailers, benchstat noise) are
// skipped. A fact that differs between packages of one run (pkg, when
// several packages were benchmarked) keeps each distinct value, comma-
// separated in first-seen order.
func Parse(r io.Reader) (Report, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	acc := map[string]*accum{}
	var order []string
	var host Host
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "goos":
				host.GOOS = addFact(host.GOOS, v)
			case "goarch":
				host.GOARCH = addFact(host.GOARCH, v)
			case "cpu":
				host.CPU = addFact(host.CPU, v)
			case "pkg":
				host.Pkg = addFact(host.Pkg, v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name N value unit [value unit ...]".
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name, procs := splitProcs(fields[0])
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		if host.GOMAXPROCS == 0 {
			host.GOMAXPROCS = procs
		}
		units := unitSignature(fields)
		a := acc[name]
		if a == nil {
			a = &accum{metrics: map[string]float64{}, units: units}
			acc[name] = a
			order = append(order, name)
		} else if a.units != units {
			a.mixed = true
			continue
		}
		a.runs++
		a.iters += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				a.ns += v
				if a.nsMin == 0 || v < a.nsMin {
					a.nsMin = v
				}
			case "B/op":
				a.bytes += v
				a.hasBytes = true
			case "allocs/op":
				a.allocs += v
				a.hasAllocs = true
			default:
				a.metrics[unit] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, nil, fmt.Errorf("benchjson: %w", err)
	}
	results := make([]Result, 0, len(order))
	var skipped []string
	for _, name := range order {
		a := acc[name]
		if a.mixed {
			skipped = append(skipped, name)
			continue
		}
		n := float64(a.runs)
		res := Result{
			Name:       name,
			Runs:       a.runs,
			Iterations: a.iters / n,
			NsPerOp:    a.ns / n,
			MinNsPerOp: a.nsMin,
		}
		if a.hasBytes {
			res.BytesPerOp = a.bytes / n
		}
		if a.hasAllocs {
			res.AllocsPerOp = a.allocs / n
		}
		if len(a.metrics) > 0 {
			res.Metrics = make(map[string]float64, len(a.metrics))
			for unit, sum := range a.metrics {
				res.Metrics[unit] = sum / n
			}
		}
		results = append(results, res)
	}
	return Report{Host: host, Benchmarks: results}, skipped, nil
}

// addFact appends v to a comma-separated fact list unless already listed.
func addFact(list, v string) string {
	v = strings.TrimSpace(v)
	if list == "" {
		return v
	}
	for _, have := range strings.Split(list, ",") {
		if have == v {
			return list
		}
	}
	return list + "," + v
}

// unitSignature renders the ordered unit list of one result line
// ("ns/op,B/op,allocs/op"). go test emits units in a fixed order per
// benchmark, so run-to-run consistency reduces to string equality.
func unitSignature(fields []string) string {
	var b strings.Builder
	for i := 3; i < len(fields); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fields[i])
	}
	return b.String()
}

// splitProcs removes the trailing -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkFoo-8" -> "BenchmarkFoo", 8). Sub-benchmark
// slashes are kept. A name without the suffix ran at GOMAXPROCS 1.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
