package main

import (
	"errors"
	"fmt"
	"math"
	"syscall"
	"time"

	"noceval/internal/closedloop"
	"noceval/internal/cmp"
	"noceval/internal/core"
	"noceval/internal/engine"
	"noceval/internal/network"
	"noceval/internal/openloop"
	"noceval/internal/router"
	"noceval/internal/sim"
	"noceval/internal/workload"
)

// The simulation workloads draw their inputs from a fixed pool of
// simulation seeds, 1..poolSize, whose outputs are recorded in
// reference.json; the workload seed picks the order a run visits them
// in, so every run is checked against recorded outputs.
const poolSize = 32

// Workload parameters. The knee phases match the repository's
// NetworkThroughput-style quick runs; the batch is the issue's sparse
// case; exec runs the paper's reference benchmarks.
const (
	kneeRate       = 0.40
	kneeWarmup     = 1000
	kneeMeasure    = 2000
	kneeDrainLimit = 20000

	sparseB     = 200
	sparseM     = 1
	sparseReply = 1000
)

var execBenchmarks = []string{"lu", "fft"}

var errIncomplete = errors.New("run did not complete")

// poolOrder returns the pooled simulation seeds in the order the workload
// seed gives them.
func poolOrder(seed uint64) []uint64 {
	perm := sim.NewRNG(seed).Perm(poolSize)
	out := make([]uint64, len(perm))
	for i, p := range perm {
		out[i] = uint64(p + 1)
	}
	return out
}

// simOp is one simulation call and the outputs it is checked on.
type simOp struct {
	key    string
	got    refEntry
	cycles int64 // simulated cycles, skipped ones included
	nodes  int
	err    error
}

// netHooks collects what the traced run reads at the run mode's own
// hooks: the engine outcome and, from Inspect, the routers' flit counts.
type netHooks struct {
	stepped, skipped, flits, sent int64
	nodes                         int
}

func (h *netHooks) onEngine(o engine.Outcome) {
	h.stepped += o.Stepped
	h.skipped += o.Skipped
}

func (h *netHooks) inspect(n *network.Network) {
	h.flits += flitsSwitched(n)
	h.nodes = n.Nodes()
	sent, _, _, _ := n.Stats()
	h.sent += sent
}

func kneeParams(seed uint64) core.NetworkParams {
	p := core.Baseline()
	p.Seed = seed
	return p
}

// kneeOp runs one open-loop measurement through openloop.Run.
func kneeOp(seed uint64, h *netHooks) simOp {
	op := simOp{key: fmt.Sprint(seed)}
	p := kneeParams(seed)
	cfg, err := p.Build()
	if err != nil {
		op.err = err
		return op
	}
	pat, err := p.BuildPattern()
	if err != nil {
		op.err = err
		return op
	}
	sizes, err := p.BuildSizes()
	if err != nil {
		op.err = err
		return op
	}
	var delivered int64
	var consErr error
	oc := openloop.Config{
		Net: cfg, Pattern: pat, Sizes: sizes, Rate: kneeRate,
		Warmup: kneeWarmup, Measure: kneeMeasure, DrainLimit: kneeDrainLimit, Seed: p.Seed,
		Inspect: func(n *network.Network) {
			_, delivered, _, _ = n.Stats()
			consErr = n.CheckConservation()
			if h != nil {
				h.inspect(n)
			}
		},
	}
	if h != nil {
		oc.OnEngine = h.onEngine
	}
	res, err := openloop.Run(oc)
	switch {
	case err != nil:
		op.err = err
	case consErr != nil:
		op.err = consErr
	case !res.Stable:
		op.err = fmt.Errorf("open-loop run unstable at load %g", kneeRate)
	default:
		op.nodes = cfg.Topo.N
		op.cycles = res.EndCycle
		op.got = refEntry{EndCycle: res.EndCycle, Packets: delivered, Mean: res.AvgLatency}
	}
	return op
}

// sparseOp runs one closed-loop batch through closedloop.RunBatch.
func sparseOp(seed uint64, h *netHooks) simOp {
	op := simOp{key: fmt.Sprint(seed)}
	p := kneeParams(seed)
	cfg, err := p.Build()
	if err != nil {
		op.err = err
		return op
	}
	pat, err := p.BuildPattern()
	if err != nil {
		op.err = err
		return op
	}
	var delivered int64
	var consErr error
	bc := closedloop.BatchConfig{
		Net: cfg, Pattern: pat, B: sparseB, M: sparseM,
		Reply: closedloop.FixedReply{Latency: sparseReply}, Seed: p.Seed,
		Inspect: func(n *network.Network) {
			_, delivered, _, _ = n.Stats()
			consErr = n.CheckConservation()
			if h != nil {
				h.inspect(n)
			}
		},
	}
	if h != nil {
		bc.OnEngine = h.onEngine
	}
	res, err := closedloop.RunBatch(bc)
	switch {
	case err != nil:
		op.err = err
	case consErr != nil:
		op.err = consErr
	case !res.Completed:
		op.err = errIncomplete
	default:
		op.nodes = cfg.Topo.N
		op.cycles = res.Runtime
		op.got = refEntry{EndCycle: res.Runtime, Packets: delivered, Mean: res.AvgPacketLatency}
	}
	return op
}

func execParams(seed uint64) core.NetworkParams {
	p := core.Table2Network(1)
	p.Seed = seed
	return p
}

func execKey(bench string, seed uint64) string { return fmt.Sprintf("%s/%d", bench, seed) }

// execOp runs one execution-driven benchmark through core.Exec; the
// experiment cache is never enabled in this process.
func execOp(bench string, seed uint64) simOp {
	op := simOp{key: execKey(bench, seed)}
	res, err := core.Exec(execParams(seed), core.ExecParams{Benchmark: bench, Clock: workload.Clock3GHz, Seed: seed})
	if err != nil {
		op.err = err
		return op
	}
	op.nodes = cmp.DefaultConfig().Tiles
	op.cycles = res.Cycles
	op.got = execEntry(res)
	return op
}

func execEntry(res *cmp.Result) refEntry {
	return refEntry{EndCycle: res.Cycles, Packets: res.TotalPackets, Mean: res.NAR}
}

// loopStats summarizes a timed loop of jobs.
type loopStats struct {
	jobs         int
	jobMS        []float64 // wall time per job
	routerCycles float64
	elapsed      float64 // wall seconds from the first job's start to the last job's end
	cpu          float64 // CPU seconds of this process over the same stretch
}

func (ls *loopStats) routerCyclesPerCPUS() float64 { return ratio{ls.routerCycles, ls.cpu}.Value() }

// cpuSeconds returns the CPU time this process has used, all threads.
// The kernel leaves out time the hypervisor gave to other guests, which
// on a shared host makes it far steadier than wall time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runJobs runs jobs over the inputs, in order and wrapping around, until
// the budget is spent; the job in progress at the deadline finishes. Each
// operation is checked against its reference.
func runJobs(out *outcome, workload string, inputs []uint64, budget time.Duration, job func(int, uint64) []simOp) loopStats {
	var ls loopStats
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		ops := job(i, inputs[i%len(inputs)])
		ls.jobMS = append(ls.jobMS, float64(time.Since(t0).Nanoseconds())/1e6)
		ls.jobs++
		for _, op := range ops {
			out.attempted++
			if err := checkOp(workload, op); err != nil {
				out.fail("%s input %s: %v", workload, op.key, err)
				continue
			}
			ls.routerCycles += float64(op.cycles) * float64(op.nodes)
		}
		if time.Since(start) >= budget {
			break
		}
	}
	ls.elapsed = time.Since(start).Seconds()
	ls.cpu = cpuSeconds() - cpu0
	return ls
}

// reportEndToEnd sets the end-to-end metrics of a simulation workload.
func reportEndToEnd(out *outcome, rc *runCtx, workload string, ls loopStats) error {
	out.metrics["router_cycles_per_cpu_s"] = ls.routerCyclesPerCPUS()
	out.metrics["jobs_per_cpu_s"] = ratio{float64(ls.jobs), ls.cpu}.Value()
	out.note("wall time: %.6g router-cycles/s, %.6g jobs/s over %.3f s (%.3f CPU s)",
		ls.routerCycles/ls.elapsed, float64(ls.jobs)/ls.elapsed, ls.elapsed, ls.cpu)
	noteTail(out, "job wall", ls.jobMS)
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	out.metrics["peak_rss_mb"] = rss
	setupCPU, setupWall, err := timeSetup(workload, rc.seed)
	if err != nil {
		return err
	}
	out.metrics["setup_s"] = setupCPU
	out.note("set-up: median of %d fresh processes, %.6f CPU s, %.6f s wall from launch to ready", setupLaunches, setupCPU, setupWall)
	return nil
}

// noteTail prints a timing's quartiles and the highest percentile that
// has at least ten samples beyond it, with the sample count.
func noteTail(out *outcome, name string, ms []float64) {
	q1, q2, q3 := quartiles(ms)
	line := fmt.Sprintf("%s latency: n=%d q1=%.3f p50=%.3f q3=%.3f ms", name, len(ms), q1, q2, q3)
	if p := tailPercentile(len(ms), 10); p > 0 {
		line += fmt.Sprintf(", p%d=%.3f ms", p, quantile(ms, float64(p)/100))
	} else {
		line += "; too few samples for a tail percentile"
	}
	out.note("%s", line)
}

// A traced run splits its measuring time between an untraced part, the
// traced run mode and the benchmark-side replay.
const (
	shareUntraced = 0.4
	shareTraced   = 0.4
	shareReplay   = 0.2
)

// reportOverhead sets the tracing overhead, traced minus untraced
// router-cycles per CPU second, with both bases.
func reportOverhead(out *outcome, untraced, traced float64) {
	out.metrics["trace.untraced_router_cycles_per_cpu_s"] = untraced
	out.metrics["trace.traced_router_cycles_per_cpu_s"] = traced
	out.metrics["trace.overhead_router_cycles_per_cpu_s"] = traced - untraced
	out.note("tracing overhead %s router-cycles per CPU second (traced / untraced)", ratio{traced, untraced})
}

// setupMesh8x8 sets up the knee and sparse workloads, which share the
// Table I mesh: it loads the references and builds the first input's
// network.
func setupMesh8x8(seed uint64) error {
	if _, err := loadReferences(); err != nil {
		return err
	}
	cfg, err := kneeParams(poolOrder(seed)[0]).Build()
	if err != nil {
		return err
	}
	network.New(cfg).Close()
	return nil
}

func setupExec(seed uint64) error {
	if _, err := loadReferences(); err != nil {
		return err
	}
	s := poolOrder(seed)[0]
	for _, bench := range execBenchmarks {
		if _, _, err := buildExec(bench, s, func(n *network.Network) cmp.Fabric { return cmp.NetFabric{Network: n} }); err != nil {
			return err
		}
	}
	return nil
}

// buildExec builds the core.Exec path from its public constructors and
// returns the warmed system, ready to run, with the time spent in
// workload.Programs and Profile.Warm.
func buildExec(bench string, seed uint64, fabric func(*network.Network) cmp.Fabric) (*cmp.System, time.Duration, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, 0, err
	}
	cfg := cmp.DefaultConfig()
	netCfg, err := execParams(seed).Build()
	if err != nil {
		return nil, 0, err
	}
	fab := fabric(network.New(netCfg))
	t0 := time.Now()
	programs := workload.Programs(prof, cfg.Tiles, seed)
	setup := time.Since(t0)
	sys, err := cmp.NewSystem(cfg, fab, programs)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	prof.Warm(sys, cfg.Tiles)
	setup += time.Since(t1)
	return sys, setup, nil
}

// runNetWorkload runs the knee or sparse workload. Untraced, it measures
// the end-to-end metrics. Traced, it adds a traced pass over the run mode
// (span and runtime deltas per call, engine and router counts from the
// run mode's hooks) and a replay that times Network.Step from outside.
//
// replay runs one replay on a fresh network; meanCycles and injRate are
// the traced pass's mean run length and measured injection rate in
// packets per node per cycle.
func runNetWorkload(rc *runCtx, name, mode string, op func(uint64, *netHooks) simOp, replay func(rs *replayStats, tr *tracer, job int64, seed uint64, meanCycles int64, injRate float64) error) (*outcome, error) {
	out := newOutcome()
	if _, err := loadReferences(); err != nil {
		return nil, err
	}
	inputs := poolOrder(rc.seed)
	untracedJob := func(_ int, s uint64) []simOp { return []simOp{op(s, nil)} }
	if !rc.trace {
		ls := runJobs(out, name, inputs, rc.budget(1), untracedJob)
		return out, reportEndToEnd(out, rc, name, ls)
	}
	base := runJobs(out, name, inputs, rc.budget(shareUntraced), untracedJob)

	h := &netHooks{}
	var rt rtDelta
	var callS []float64
	var callNS int64
	traced := runJobs(out, name, inputs, rc.budget(shareTraced), func(i int, s uint64) []simOp {
		before := readRuntime()
		id := rc.tracer.begin(mode, 0, int64(i))
		t0 := nanotime()
		o := op(s, h)
		dt := nanotime() - t0
		rc.tracer.end(id)
		rt.add(before, readRuntime())
		callS = append(callS, float64(dt)/1e9)
		callNS += dt
		return []simOp{o}
	})
	cycles := h.stepped + h.skipped
	if cycles == 0 {
		return nil, fmt.Errorf("traced pass simulated no cycles")
	}
	runModeNSPerCycle := float64(callNS) / float64(cycles)
	meanCycles := cycles / int64(len(callS))
	injRate := float64(h.sent) / float64(cycles) / float64(h.nodes)

	var rs replayStats
	deadline := time.Now().Add(rc.budget(shareReplay))
	seeds := sim.NewRNG(rc.seed ^ 0x5eed)
	// Replay spans continue the traced pass's job numbering.
	for job := int64(len(callS)); rs.runs == 0 || time.Now().Before(deadline); job++ {
		out.attempted++
		if err := replay(&rs, rc.tracer, job, seeds.Uint64(), meanCycles, injRate); err != nil {
			out.fail("replay %d: %v", job, err)
			break
		}
	}

	stepPerCycle := rs.reportNetwork(out, runModeNSPerCycle)
	out.metrics["router.flits_switched_per_cycle"] = float64(h.flits) / float64(cycles)
	out.metrics["engine.cycles_stepped"] = float64(h.stepped)
	out.metrics["engine.cycles_skipped"] = float64(h.skipped)
	out.metrics["engine.skip_ratio"] = ratio{float64(h.skipped), float64(cycles)}.Value()
	out.note("engine.skip_ratio base %s cycles", ratio{float64(h.skipped), float64(cycles)})
	out.metrics[mode+".run_s"] = median(callS)
	out.metrics[mode+".overhead_ns_per_cycle"] = runModeNSPerCycle - stepPerCycle
	out.note("%s.overhead_ns_per_cycle = %.1f ns/cycle run mode - %.1f ns/cycle replay Step", mode, runModeNSPerCycle, stepPerCycle)
	rt.report(out, cycles)
	reportOverhead(out, base.routerCyclesPerCPUS(), traced.routerCyclesPerCPUS())
	return out, nil
}

func runKneeWorkload(rc *runCtx) (*outcome, error) {
	return runNetWorkload(rc, "openloop-mesh8x8-knee", "openloop", kneeOp,
		func(rs *replayStats, tr *tracer, job int64, seed uint64, meanCycles int64, injRate float64) error {
			cfg, err := kneeParams(seed).Build()
			if err != nil {
				return err
			}
			net := network.New(cfg)
			d := &bernoulliReplay{net: net, rng: sim.NewRNG(seed), prob: injRate, until: meanCycles}
			return rs.replay(tr, job, "engine.RunOutcome(open-loop replay)", net, d, 0)
		})
}

func runSparseWorkload(rc *runCtx) (*outcome, error) {
	return runNetWorkload(rc, "batch-mesh8x8-sparse", "closedloop", sparseOp,
		func(rs *replayStats, tr *tracer, job int64, seed uint64, _ int64, _ float64) error {
			cfg, err := kneeParams(seed).Build()
			if err != nil {
				return err
			}
			net := network.New(cfg)
			d := newBatchReplay(net, seed, sparseB, sparseM, sparseReply)
			return rs.replay(tr, job, "engine.RunOutcome(batch replay)", net, d, 50_000_000)
		})
}

// timedFabric wraps cmp.NetFabric, timing Step and each packet's
// NewPacket and Send. Packets sent from inside Step (protocol replies on
// receive) are counted apart, so the timer's share can be taken out of
// the right interval.
type timedFabric struct {
	cmp.NetFabric
	stepNS, steps, active int64
	sendNS, sends         int64
	inStep                bool
	sendsInStep           int64
}

func (f *timedFabric) Step() {
	f.inStep = true
	start := nanotime()
	f.NetFabric.Step()
	f.stepNS += nanotime() - start
	f.inStep = false
	f.steps++
	f.active += int64(f.Network.ActiveCount())
}

func (f *timedFabric) NewPacket(src, dst, size int, kind router.Kind) *router.Packet {
	start := nanotime()
	p := f.NetFabric.NewPacket(src, dst, size, kind)
	f.sendNS += nanotime() - start
	return p
}

func (f *timedFabric) Send(p *router.Packet) {
	start := nanotime()
	f.NetFabric.Send(p)
	f.sendNS += nanotime() - start
	f.sends++
	if f.inStep {
		f.sendsInStep++
	}
}

// execTraced accumulates the traced exec pass.
type execTraced struct {
	runNS, stepNS, cycleNS, sendNS int64
	steps, active, sends, inStep   int64
	cycles, flits                  int64
	runS, setupS                   []float64
	rt                             rtDelta
}

// tracedExecOp reproduces core.Exec from public constructors over a timed
// fabric: it drives the system through engine.RunOutcome itself, timing
// System.Cycle, then calls System.Run, which finds the system done and
// only collects the result. The result must equal core.Exec's.
func (et *execTraced) op(tr *tracer, job int64, bench string, seed uint64) (simOp, float64) {
	op := simOp{key: execKey(bench, seed)}
	before := readRuntime()
	id := tr.begin("core.Exec(rebuilt) "+bench, 0, job)
	var fab *timedFabric
	sys, setup, err := buildExec(bench, seed, func(n *network.Network) cmp.Fabric {
		fab = &timedFabric{NetFabric: cmp.NetFabric{Network: n}}
		return fab
	})
	if err != nil {
		tr.end(id)
		op.err = err
		return op, 0
	}
	td := &timedDriver{Driver: sys}
	runID := tr.begin("cmp.System.Run", id, job)
	start := nanotime()
	engine.RunOutcome(engine.Config{Net: fab, Deadline: cmp.DefaultConfig().MaxCycles}, td)
	res := sys.Run()
	runNS := nanotime() - start
	tr.end(runID)
	tr.end(id)
	et.rt.add(before, readRuntime())
	if !res.Completed {
		op.err = errIncomplete
		return op, 0
	}
	et.runNS += runNS
	et.stepNS += fab.stepNS
	et.cycleNS += td.cycleNS
	et.sendNS += fab.sendNS
	et.steps += fab.steps
	et.active += fab.active
	et.sends += fab.sends
	et.inStep += fab.sendsInStep
	et.cycles += res.Cycles
	et.flits += flitsSwitched(fab.Network)
	et.setupS = append(et.setupS, setup.Seconds())
	op.nodes = cmp.DefaultConfig().Tiles
	op.cycles = res.Cycles
	op.got = execEntry(res)
	return op, float64(runNS) / 1e9
}

func (et *execTraced) report(out *outcome) {
	if et.steps == 0 || et.cycles == 0 {
		return
	}
	c := timerCost()
	// Each timed interval holds about one timer call and leaves one
	// outside it; a packet is timed twice (NewPacket and Send).
	sendsInCycle := et.sends - et.inStep
	step := float64(et.stepNS) - c*float64(et.steps) - 2*c*float64(et.inStep)
	cycle := float64(et.cycleNS) - c*float64(et.steps) - 2*c*float64(sendsInCycle)
	send := float64(et.sendNS) - 2*c*float64(et.sends)
	loop := float64(et.runNS-et.stepNS-et.cycleNS) - 2*c*float64(et.steps)
	out.metrics["network.step_ns"] = step / float64(et.steps)
	out.metrics["network.active_routers_mean"] = float64(et.active) / float64(et.steps)
	out.metrics["network.step_share"] = ratio{step, float64(et.runNS)}.Value()
	out.note("network.step_share base %s ns (Step / System.Run)", ratio{step, float64(et.runNS)})
	if et.flits > 0 {
		out.metrics["router.ns_per_flit"] = step / float64(et.flits)
	}
	out.metrics["router.flits_switched_per_cycle"] = float64(et.flits) / float64(et.cycles)
	out.metrics["engine.cycles_stepped"] = float64(et.steps)
	out.metrics["engine.cycles_skipped"] = float64(et.cycles - et.steps)
	out.metrics["engine.skip_ratio"] = ratio{float64(et.cycles - et.steps), float64(et.cycles)}.Value()
	out.metrics["engine.loop_ns_per_cycle"] = loop / float64(et.cycles)
	out.metrics["cmp.run_s"] = median(et.runS)
	// System.Run time minus fabric Step time, per cycle, timer cost removed.
	out.metrics["cmp.cycle_ns"] = (cycle + loop) / float64(et.cycles)
	out.note("cmp.cycle_ns splits into System.Cycle %.1f ns and engine loop %.1f ns per cycle", cycle/float64(et.cycles), loop/float64(et.cycles))
	if et.sends > 0 {
		out.metrics["cmp.send_ns"] = send / float64(et.sends)
	}
	out.metrics["workload.setup_s"] = median(et.setupS)
	et.rt.report(out, et.cycles)
}

func runExecWorkload(rc *runCtx) (*outcome, error) {
	const name = "exec-mesh4x4-cmp"
	out := newOutcome()
	if _, err := loadReferences(); err != nil {
		return nil, err
	}
	inputs := poolOrder(rc.seed)
	untracedJob := func(_ int, s uint64) []simOp {
		var ops []simOp
		for _, bench := range execBenchmarks {
			ops = append(ops, execOp(bench, s))
		}
		return ops
	}
	if !rc.trace {
		ls := runJobs(out, name, inputs, rc.budget(1), untracedJob)
		return out, reportEndToEnd(out, rc, name, ls)
	}
	untraced := map[string]refEntry{}
	base := runJobs(out, name, inputs, rc.budget(0.5), func(i int, s uint64) []simOp {
		ops := untracedJob(i, s)
		for _, o := range ops {
			untraced[o.key] = o.got
		}
		return ops
	})
	et := &execTraced{}
	traced := runJobs(out, name, inputs, rc.budget(0.5), func(i int, s uint64) []simOp {
		var ops []simOp
		var runS float64
		for _, bench := range execBenchmarks {
			o, dt := et.op(rc.tracer, int64(i), bench, s)
			runS += dt
			if want, ok := untraced[o.key]; ok && o.err == nil && o.got != want {
				o.err = fmt.Errorf("traced exec %+v differs from core.Exec %+v", o.got, want)
			}
			ops = append(ops, o)
		}
		et.runS = append(et.runS, runS)
		return ops
	})
	et.report(out)
	reportOverhead(out, base.routerCyclesPerCPUS(), traced.routerCyclesPerCPUS())
	return out, nil
}
