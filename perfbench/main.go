// Command perfbench is the repository benchmark: it runs one workload for
// a fixed time, checks that the simulated outputs are correct, and prints
// every metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload openloop-mesh8x8-knee --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run is split into an untraced part, a
// traced part that records spans around calls into each layer, and (for
// the network run modes) a replay that times Network.Step from outside;
// the metrics are then the per-layer ones plus the tracing overhead.
//
// BENCHMARK.json at the repository root is generated from the tables in
// this file (-write-manifest) and every run checks that it still matches.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"noceval/internal/core"
)

// runSeconds is how long one run measures unless --seconds says otherwise.
const runSeconds = 20

// manifestFile is the benchmark manifest, read and written relative to
// the repository root the benchmark runs from.
const manifestFile = "BENCHMARK.json"

// setupLaunches is how many times a run sets its workload up from a fresh
// process; setup_s is the median.
const setupLaunches = 5

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload with tracing off. Host time is CPU time of the simulating
// process (this one, or nocd for the service): on a shared host the
// hypervisor takes a varying share of wall time, which swung wall-time
// throughput of the same run by 20% while CPU time held within 1%. Wall
// times are printed as notes. A "job" is one unit of work a user waits
// for: one simulation run (for exec, the lu+fft pair), or one submission
// to the service, where cache hits and coalesced duplicates count.
var endToEnd = []metricDef{
	{"router_cycles_per_cpu_s", "router-cyc/cpu-s", "higher", 0.25},
	{"jobs_per_cpu_s", "jobs/cpu-s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are measured by the traced run. A workload that does not call
// into a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"router.flits_switched_per_cycle", "flits/cycle", "higher", 0},
	{"router.ns_per_flit", "ns/flit", "lower", 0},
	{"network.step_ns", "ns", "lower", 0},
	{"network.step_share", "fraction", "lower", 0},
	{"network.active_routers_mean", "routers", "lower", 0},
	{"engine.cycles_stepped", "count", "lower", 0},
	{"engine.cycles_skipped", "count", "higher", 0},
	{"engine.skip_ratio", "fraction", "higher", 0},
	{"engine.loop_ns_per_cycle", "ns/cycle", "lower", 0},
	{"openloop.run_s", "s", "lower", 0},
	{"openloop.overhead_ns_per_cycle", "ns/cycle", "lower", 0},
	{"closedloop.run_s", "s", "lower", 0},
	{"closedloop.overhead_ns_per_cycle", "ns/cycle", "lower", 0},
	{"cmp.run_s", "s", "lower", 0},
	{"cmp.cycle_ns", "ns/cycle", "lower", 0},
	{"cmp.send_ns", "ns", "lower", 0},
	{"workload.setup_s", "s", "lower", 0},
	{"core.cold_run_ms_p50", "ms", "lower", 0},
	{"core.cached_run_ms_p50", "ms", "lower", 0},
	{"expcache.hits", "count", "higher", 0},
	{"expcache.misses", "count", "lower", 0},
	{"expcache.hit_ratio", "fraction", "higher", 0},
	{"expcache.puts", "count", "lower", 0},
	{"expcache.bytes_read", "bytes", "lower", 0},
	{"expcache.bytes_written", "bytes", "lower", 0},
	{"service.submit_rtt_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.queue_wait_ms_p95", "ms", "lower", 0},
	{"service.notify_lag_ms_p50", "ms", "lower", 0},
	{"service.coalesce_ratio", "fraction", "higher", 0},
	{"service.job_p50_ms", "ms", "lower", 0},
	{"service.job_p95_ms", "ms", "lower", 0},
	{"service.cached_job_p50_ms", "ms", "lower", 0},
	{"pool.utilization", "fraction", "higher", 0},
	{"runtime.allocs_per_cycle", "allocs/cycle", "lower", 0},
	{"runtime.alloc_bytes_per_cycle", "bytes/cycle", "lower", 0},
	{"runtime.gc_cpu_fraction", "fraction", "lower", 0},
	{"trace.untraced_router_cycles_per_cpu_s", "router-cyc/cpu-s", "higher", 0},
	{"trace.traced_router_cycles_per_cpu_s", "router-cyc/cpu-s", "higher", 0},
	{"trace.overhead_router_cycles_per_cpu_s", "router-cyc/cpu-s", "higher", 0},
}

// workloadDef is one benchmark workload. Why says why it was chosen,
// whether it is open or closed loop with its rate or client count, and
// the measured share of the inputs that exercise its mechanism.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	setup func(seed uint64) error
	run   func(rc *runCtx) (*outcome, error)
}

var workloads = []workloadDef{
	{
		Name:  "openloop-mesh8x8-knee",
		Why:   "Open loop, Bernoulli 0.40 flits/node/cycle on the Table I 8x8 mesh, just under saturation (~0.42): all 64 routers active, 0% of cycles skipped; router and network step dominate.",
		setup: setupMesh8x8,
		run:   runKneeWorkload,
	},
	{
		Name:  "batch-mesh8x8-sparse",
		Why:   "Closed loop batch, 64 nodes, b=200 m=1, 1000-cycle replies, 8x8 mesh: ~4 of 64 routers active, 31% of cycles skipped (measured); engine fast-forward and active set dominate.",
		setup: setupMesh8x8,
		run:   runSparseWorkload,
	},
	{
		Name:  "exec-mesh4x4-cmp",
		Why:   "Closed loop: execution-driven lu+fft at 3 GHz via core.Exec, Table II 4x4 mesh, cache off: ~4 of 16 routers active, 0% of cycles skipped; cmp cores, caches and directory dominate.",
		setup: setupExec,
		run:   runExecWorkload,
	},
	{
		Name:  "service-mixed-specs",
		Why:   "nocd, fresh cache, 2 workers; 2 closed-loop clients. Measured submission shares: 70% unique (simulate, write cache), 20% repeat (cache read), 10% in-flight duplicate (coalesce).",
		setup: nil,
		run:   runServiceWorkload,
	},
}

type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

// layerDef is a per-layer metric as BENCHMARK.json lists it: no bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runCtx is what a workload run gets from the command line.
type runCtx struct {
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string // build and scratch directory inside the checkout
	nocdPath string
	tracer   *tracer
}

// budget returns the given share of the run's measuring time.
func (rc *runCtx) budget(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// outcome is one run's result before printing.
type outcome struct {
	attempted, failed int64
	errors            []string
	metrics           map[string]float64
	// notes are printed for the reader but are not contract metrics:
	// error rate, tail percentiles with their sample counts, input shares.
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errors) < 20 {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	workloadName := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "measuring time of the run in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	workDir := flag.String("work", ".bench_build", "build and scratch directory")
	writeManifest := flag.Bool("write-manifest", false, "write "+manifestFile+" from the tables and exit")
	record := flag.String("record-reference", "", "simulate every pooled input, write reference outputs to this file and exit")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print ready and exit (used to time set-up)")
	flag.Parse()

	want, err := manifestJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *writeManifest {
		if err := os.WriteFile(manifestFile, want, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	// core.Baseline and core.Table2Network read NOCEVAL_SHARDS; a shard
	// count would change the network under test.
	shardsEnv, hadShards := os.LookupEnv("NOCEVAL_SHARDS")
	os.Unsetenv("NOCEVAL_SHARDS")
	if core.Baseline().Shards != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: NOCEVAL_SHARDS still reaches core.Baseline")
		return 2
	}
	if *record != "" {
		if err := recordReferences(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if err := checkManifest(manifestFile, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *workloadName == "all" {
		return runAll(*seed, *seconds, *trace, *workDir)
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].Name == *workloadName {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; one of all, %s\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *setupOnly {
		if w.setup == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no in-process set-up\n", w.Name)
			return 2
		}
		if err := w.setup(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		// The parent times set-up by the CPU this process used until here.
		fmt.Println("ready", strconv.FormatFloat(cpuSeconds(), 'g', -1, 64))
		return 0
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	rc := &runCtx{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  *workDir,
		nocdPath: filepath.Join(*workDir, "bin", "nocd"),
	}
	printHost(w.Name, rc, shardsEnv, hadShards)
	if rc.trace {
		rc.tracer = &tracer{}
	}
	out, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if rc.trace {
		path := filepath.Join(rc.workDir, "traces", fmt.Sprintf("%s-seed%d.json", w.Name, rc.seed))
		if err := rc.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans %d written to %s\n", len(rc.tracer.spans), path)
	}
	return printOutcome(out, rc.trace)
}

// runAll runs every workload in turn, each in a fresh process so that
// peak RSS and set-up stay per workload.
func runAll(seed uint64, seconds float64, trace int, workDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames() {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, "-work", workDir, "-workload", name,
			"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// checkManifest fails when the manifest on disk no longer matches the
// tables this binary measures.
func checkManifest(path string, want []byte) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading manifest: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s does not match the benchmark's tables; regenerate it with -write-manifest", path)
	}
	return nil
}

// printOutcome prints every metric by name and unit, then the contract
// JSON line. It fails when a workload left a contract metric unset.
func printOutcome(out *outcome, trace bool) int {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			v = 0
			if !trace {
				fmt.Fprintf(os.Stderr, "perfbench: workload did not report %s\n", d.Name)
				return 1
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v\n", d.Name, v)
			return 1
		}
		metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("metric %-36s %-18s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	for _, n := range out.notes {
		fmt.Println("note", n)
	}
	for _, e := range out.errors {
		fmt.Println("failed", e)
	}
	fmt.Printf("note error_rate %s fraction\n", ratio{float64(out.failed), float64(out.attempted)})
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printHost records the host facts and the pinned environment, so a
// figure can be compared like with like and re-checked on another seed.
func printHost(workload string, rc *runCtx, shardsEnv string, hadShards bool) {
	shards := "unset"
	if hadShards {
		shards = fmt.Sprintf("unset (was %q)", shardsEnv)
	}
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("code commit=%s source_sha256=%s\n", commit(), sourceHash("."))
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%v NOCEVAL_SHARDS=%s\n", workload, rc.seed, rc.seconds, rc.trace, shards)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, or "unknown"
// when it was built outside a git checkout; sourceHash identifies the
// code either way.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash is the SHA-256 over the paths and contents of every Go
// source and go.mod file under root, skipping hidden directories.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns VmHWM, the peak resident set size, of a process in MB
// (pid 0 means this process).
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// timeSetup launches this binary with -setup-only several times and
// returns the median CPU time each child used until it was ready to run
// the first job, and the median wall time from launch to ready.
func timeSetup(workload string, seed uint64) (cpu, wall float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var cpus, walls []float64
	for i := 0; i < setupLaunches; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, 0, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		walls = append(walls, time.Since(start).Seconds())
		io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return 0, 0, fmt.Errorf("set-up child: %w", err)
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
		c, perr := strconv.ParseFloat(rest, 64)
		if readErr != nil || !ok || perr != nil {
			return 0, 0, fmt.Errorf("set-up child printed %q", line)
		}
		cpus = append(cpus, c)
	}
	return median(cpus), median(walls), nil
}
