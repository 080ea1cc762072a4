package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"noceval/internal/engine"
	"noceval/internal/network"
	"noceval/internal/router"
	"noceval/internal/sim"
	"noceval/internal/traffic"
)

var epoch = time.Now()

// nanotime is a monotonic clock reading in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one job share Job; Parent is the span that made
// the call (0 for none).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Job     int64  `json:"job"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Per-cycle calls
// (Network.Step, Driver.Cycle, Fabric.Send) are far too many to keep as
// spans; they are summed at the same boundary instead (see timedNet).
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent, job int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, StartNS: nanotime()})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := nanotime()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timerCost is the cost of one nanotime call, measured once per run. Each
// timed interval absorbs about one call and the code around it another;
// the per-layer figures subtract them so that a thin layer (the engine
// loop) is not swamped by the timer.
var timerCost = sync.OnceValue(func() float64 {
	const n = 1 << 18
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		start := nanotime()
		for i := 0; i < n; i++ {
			nanotime()
		}
		c := float64(nanotime()-start) / n
		if rep == 0 || c < best {
			best = c
		}
	}
	return best
})

// rtSnap is the Go runtime's allocation and GC accounting at one moment.
type rtSnap struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtSnap {
	metrics.Read(rtSamples)
	var s rtSnap
	if rtSamples[0].Value.Kind() == metrics.KindUint64 {
		s.mallocs = rtSamples[0].Value.Uint64() + rtSamples[1].Value.Uint64()
		s.bytes = rtSamples[2].Value.Uint64()
	}
	if rtSamples[3].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rtSamples[3].Value.Float64()
		s.totalCPU = rtSamples[4].Value.Float64()
	}
	return s
}

// rtDelta accumulates runtime accounting over the calls it wraps.
type rtDelta struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func (d *rtDelta) add(before, after rtSnap) {
	d.mallocs += after.mallocs - before.mallocs
	d.bytes += after.bytes - before.bytes
	d.gcCPU += after.gcCPU - before.gcCPU
	d.totalCPU += after.totalCPU - before.totalCPU
}

// report sets the runtime.* metrics per simulated cycle.
func (d *rtDelta) report(out *outcome, cycles int64) {
	if cycles > 0 {
		out.metrics["runtime.allocs_per_cycle"] = float64(d.mallocs) / float64(cycles)
		out.metrics["runtime.alloc_bytes_per_cycle"] = float64(d.bytes) / float64(cycles)
	}
	out.metrics["runtime.gc_cpu_fraction"] = ratio{d.gcCPU, d.totalCPU}.Value()
	out.note("runtime.gc_cpu_fraction base %s cpu-seconds", ratio{d.gcCPU, d.totalCPU})
}

// flitsSwitched sums Router.PortFlits over every router and port: the
// flits the routers forwarded, including ejections.
func flitsSwitched(n *network.Network) int64 {
	ports := n.Config().Topo.Ports()
	var sum int64
	for id := 0; id < n.Nodes(); id++ {
		r := n.Router(id)
		for p := 0; p < ports; p++ {
			sum += r.PortFlits(p)
		}
	}
	return sum
}

// timedNet times every Network.Step from outside and samples the active
// router count after it. Embedding keeps the fast-forward interface, so
// the engine skips exactly as it would on the bare network.
type timedNet struct {
	*network.Network
	stepNS, steps, active int64
}

func (t *timedNet) Step() {
	start := nanotime()
	t.Network.Step()
	t.stepNS += nanotime() - start
	t.steps++
	t.active += int64(t.Network.ActiveCount())
}

// timedDriver times every Driver.Cycle.
type timedDriver struct {
	engine.Driver
	cycleNS int64
}

func (d *timedDriver) Cycle(now int64) {
	start := nanotime()
	d.Driver.Cycle(now)
	d.cycleNS += nanotime() - start
}

// replayStats sums the replays of one traced run.
type replayStats struct {
	runs                      int
	cycles, steps, active     int64
	stepNS, cycleNS, engineNS int64
	flits                     int64
}

// replay drives a fresh network with a benchmark-side driver through
// engine.RunOutcome, timing Step and Cycle separately from the loop.
func (rs *replayStats) replay(tr *tracer, job int64, name string, net *network.Network, d engine.Driver, deadline int64) error {
	defer net.Close()
	tn := &timedNet{Network: net}
	td := &timedDriver{Driver: d}
	id := tr.begin(name, 0, job)
	start := nanotime()
	eo := engine.RunOutcome(engine.Config{Net: tn, Deadline: deadline}, td)
	rs.engineNS += nanotime() - start
	tr.end(id)
	if err := net.CheckConservation(); err != nil {
		return err
	}
	if !eo.Completed {
		return errIncomplete
	}
	rs.runs++
	rs.cycles += eo.End
	rs.steps += tn.steps
	rs.active += tn.active
	rs.stepNS += tn.stepNS
	rs.cycleNS += td.cycleNS
	rs.flits += flitsSwitched(net)
	return nil
}

// stepNSTrue is the replay's Step time with the timer's share removed.
func (rs *replayStats) stepNSTrue() float64 {
	return float64(rs.stepNS) - timerCost()*float64(rs.steps)
}

// loopNSTrue is the engine's own time: the engine call minus Step and
// Cycle, minus the timer calls made around them.
func (rs *replayStats) loopNSTrue() float64 {
	return float64(rs.engineNS-rs.stepNS-rs.cycleNS) - 2*timerCost()*float64(rs.steps)
}

// reportNetwork sets the router, network and engine loop metrics from the
// replays; runModeNSPerCycle is the traced run mode's wall time per
// simulated cycle, the base of network.step_share.
func (rs *replayStats) reportNetwork(out *outcome, runModeNSPerCycle float64) (stepNSPerCycle float64) {
	if rs.steps == 0 || rs.cycles == 0 {
		return 0
	}
	step := rs.stepNSTrue()
	stepNSPerCycle = step / float64(rs.cycles)
	out.metrics["network.step_ns"] = step / float64(rs.steps)
	out.metrics["network.active_routers_mean"] = float64(rs.active) / float64(rs.steps)
	out.metrics["engine.loop_ns_per_cycle"] = rs.loopNSTrue() / float64(rs.cycles)
	if rs.flits > 0 {
		out.metrics["router.ns_per_flit"] = step / float64(rs.flits)
	}
	share := ratio{stepNSPerCycle, runModeNSPerCycle}
	out.metrics["network.step_share"] = share.Value()
	out.note("replay runs=%d cycles=%d stepped=%d flits=%d timer_ns=%.1f", rs.runs, rs.cycles, rs.steps, rs.flits, timerCost())
	out.note("network.step_share base %s ns/cycle (replay Step / traced run mode)", share)
	return stepNSPerCycle
}

// bernoulliReplay offers uniform single-flit traffic at a fixed rate from
// every node for a fixed number of cycles: the open-loop injection
// process without the run mode's bookkeeping.
type bernoulliReplay struct {
	net   *network.Network
	rng   *sim.RNG
	prob  float64
	until int64
}

func (d *bernoulliReplay) Cycle(int64) {
	n := d.net.Nodes()
	for node := 0; node < n; node++ {
		if d.rng.Bernoulli(d.prob) {
			dst := traffic.Uniform{}.Dest(d.rng, node, n)
			d.net.Send(d.net.NewPacket(node, dst, 1, router.KindData))
		}
	}
}
func (d *bernoulliReplay) Done(now int64) bool   { return now >= d.until }
func (d *bernoulliReplay) Idle(int64) bool       { return false }
func (d *bernoulliReplay) NextEvent(int64) int64 { return engine.NoEvent }

// batchReplay is a closed-loop batch without the run mode's accounting:
// every node completes b request/reply transactions to uniform
// destinations with at most m outstanding, and a reply leaves its
// destination a fixed latency after the request arrives. It is idle, and
// the engine fast-forwards, while every node waits on a reply.
type batchReplay struct {
	net          *network.Network
	rng          *sim.RNG
	b, m         int
	replyLatency int64
	sent, done   []int
	pending      []int
	finished     int
	replies      []replyAt // FIFO: every reply has the same latency
}

type replyAt struct {
	ready    int64
	from, to int
}

func newBatchReplay(net *network.Network, seed uint64, b, m int, replyLatency int64) *batchReplay {
	n := net.Nodes()
	d := &batchReplay{
		net: net, rng: sim.NewRNG(seed), b: b, m: m, replyLatency: replyLatency,
		sent: make([]int, n), done: make([]int, n), pending: make([]int, n),
	}
	net.OnReceive = func(now int64, p *router.Packet) {
		if p.Kind == router.KindRequest {
			d.replies = append(d.replies, replyAt{now + d.replyLatency, p.Dst, p.Src})
			return
		}
		d.pending[p.Dst]--
		if d.done[p.Dst]++; d.done[p.Dst] == d.b {
			d.finished++
		}
	}
	return d
}

func (d *batchReplay) Cycle(now int64) {
	for len(d.replies) > 0 && d.replies[0].ready <= now {
		r := d.replies[0]
		d.replies = d.replies[1:]
		d.net.Send(d.net.NewPacket(r.from, r.to, 1, router.KindReply))
	}
	n := d.net.Nodes()
	for node := 0; node < n; node++ {
		if d.sent[node] < d.b && d.pending[node] < d.m {
			dst := traffic.Uniform{}.Dest(d.rng, node, n)
			d.net.Send(d.net.NewPacket(node, dst, 1, router.KindRequest))
			d.sent[node]++
			d.pending[node]++
		}
	}
}

func (d *batchReplay) Done(int64) bool { return d.finished == len(d.done) }

func (d *batchReplay) Idle(now int64) bool {
	if len(d.replies) > 0 && d.replies[0].ready <= now {
		return false
	}
	for node := range d.sent {
		if d.sent[node] < d.b && d.pending[node] < d.m {
			return false
		}
	}
	return true
}

func (d *batchReplay) NextEvent(int64) int64 {
	if len(d.replies) == 0 {
		return engine.NoEvent
	}
	return d.replies[0].ready
}
