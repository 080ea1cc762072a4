package router

import (
	"fmt"
	"math/bits"

	"noceval/internal/obs"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// ArbPolicy selects how conflicting requests are ordered in the VC and
// switch allocators (Table I: round robin, age-based).
type ArbPolicy int

// Arbitration policies.
const (
	RoundRobin ArbPolicy = iota
	AgeBased
)

// String returns the policy's short name.
func (p ArbPolicy) String() string {
	if p == AgeBased {
		return "age"
	}
	return "rr"
}

// ClassArbPolicy selects how QoS traffic classes compete in the VC and
// switch allocators when Config.Classes > 1.
type ClassArbPolicy int

// Class arbitration policies.
const (
	// StrictPriority serves class 0 requests before class 1, and so on;
	// within a class the configured ArbPolicy breaks ties. This is the
	// QoS mode: high-priority traffic preempts allocator bandwidth.
	StrictPriority ClassArbPolicy = iota
	// ClassRoundRobin keeps the classic class-blind allocators: classes
	// still get disjoint VC partitions, but compete on equal terms.
	ClassRoundRobin
)

// String returns the policy's short name.
func (p ClassArbPolicy) String() string {
	if p == ClassRoundRobin {
		return "classrr"
	}
	return "strict"
}

// ejectionCredits is the effectively infinite credit count of ejection
// output VCs: terminals are ideal sinks, so ejection is limited only by
// the one-flit-per-cycle switch bandwidth.
const ejectionCredits = 1 << 30

// Config carries the router microarchitecture parameters of Table I.
type Config struct {
	VCs      int       // virtual channels per port
	BufDepth int       // flit buffer depth per VC (q)
	Delay    int64     // router pipeline latency in cycles (tr)
	Arb      ArbPolicy // allocator arbitration policy
	// SAIterations is the number of separable switch-allocation passes
	// per cycle (iSLIP-style): after the first input/output matching,
	// further iterations match the ports left unpaired, improving crossbar
	// utilization near saturation. 0 or 1 selects the classic single pass.
	SAIterations int
	// Classes is the number of QoS traffic classes the VC space is
	// partitioned across. 0 or 1 selects the classic single-class router:
	// every code path is then exactly the pre-QoS implementation. With
	// C > 1, class c owns the VC slice [c*VCs/C, (c+1)*VCs/C) on every
	// port, and the routing algorithm's deadlock classes subdivide each
	// slice the same way they used to subdivide the whole VC space.
	Classes int
	// ClassArb selects strict-priority (default) or class-blind
	// round-robin arbitration between classes; ignored when Classes <= 1.
	ClassArb ClassArbPolicy
}

// Validate reports configuration errors, including too few VCs for the
// routing algorithm's class requirements.
func (c Config) Validate(t *topology.Topology, alg routing.Algorithm) error {
	if c.VCs < 1 {
		return fmt.Errorf("router: VCs must be >= 1, got %d", c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("router: BufDepth must be >= 1, got %d", c.BufDepth)
	}
	if c.Delay < 1 {
		return fmt.Errorf("router: Delay must be >= 1, got %d", c.Delay)
	}
	if need := alg.NumClasses(t); c.VCs < need {
		return fmt.Errorf("router: algorithm %s needs %d VC classes on %s but only %d VCs configured",
			alg.Name(), need, t.Name, c.VCs)
	}
	if c.Classes < 0 {
		return fmt.Errorf("router: Classes must be >= 0, got %d", c.Classes)
	}
	if c.Classes > 1 {
		// Every QoS class's VC slice must still fit the routing
		// algorithm's deadlock classes, or packets of that class could
		// find no legal output VC and wedge.
		need := alg.NumClasses(t)
		for qc := 0; qc < c.Classes; qc++ {
			lo := qc * c.VCs / c.Classes
			hi := (qc + 1) * c.VCs / c.Classes
			if w := hi - lo; w < need {
				return fmt.Errorf("router: QoS class %d gets %d of %d VCs, but algorithm %s needs %d per class on %s (short %d)",
					qc, w, c.VCs, alg.Name(), need, t.Name, need-w)
			}
		}
	}
	return nil
}

// inVC is one input virtual channel: a bounded flit FIFO, embedded by
// value so the allocators reach the front flit without a pointer hop, plus
// the allocation state of the packet currently at its front.
type inVC struct {
	buf      sim.FIFO[Flit]
	routed   bool
	granted  bool
	outPort  int
	outVC    int
	outClass int // routing class of the granted output VC
	cands    []routing.Candidate
}

// reset clears the front packet's allocation after its tail departs.
func (v *inVC) reset() {
	v.routed, v.granted = false, false
	v.cands = v.cands[:0]
}

// outVC is the book-keeping for one downstream virtual channel: ownership
// (set at VC allocation, cleared when the owner's tail flit departs) and
// the credit count mirroring free downstream buffer slots.
type outVC struct {
	owned   bool
	credits int
}

// vcRange is a half-open VC index range [lo, hi).
type vcRange struct{ lo, hi int }

// upstreamRef identifies who to send credits to when a flit leaves one of
// our input buffers.
type upstreamRef struct {
	r    *Router // nil for the injection port (the terminal is co-located)
	port int     // upstream output port feeding our input port
	// cross marks an upstream router living in a different shard tile:
	// credits to it are handed to the network's credit sink instead of
	// applied in place, so concurrently stepping tiles never write each
	// other's state (see Network.Step's sharded path).
	cross bool
}

// Router is one cycle-accurate virtual-channel router.
type Router struct {
	ID    int
	topo  *topology.Topology
	alg   routing.Algorithm
	cfg   Config
	ports int
	local int // the topology's local (injection/ejection) port
	// numClasses caches alg.NumClasses(topo); classRange sits on the
	// per-candidate routing path and must not pay an interface call.
	numClasses int
	// qos is the number of QoS traffic classes (>= 1); strict is true
	// when qos > 1 under StrictPriority, enabling the priority branches
	// in the allocators. Single-class routers keep qos == 1 and strict
	// false, so every hot path is the classic implementation.
	qos    int
	strict bool
	// vcQoS maps a VC index to its QoS class. An input VC only ever holds
	// packets of its own class — injection enters the class's partition,
	// VC allocation grants only within the packet's partition, and a
	// delivered flit lands at whatever VC its upstream allocator chose
	// inside that partition — so allocators can read a front packet's
	// class from this table without peeking at the buffer.
	vcQoS []int8
	// qosMasks[c] has bit p*VCs+v set for every (port, VC) pair whose VC
	// belongs to class c, for the bitmask allocator paths.
	qosMasks []uint64

	// in and out hold the per-(port, VC) state in one contiguous slice
	// each, indexed p*VCs+v — the same flat index the state bitmasks use.
	in  []inVC
	out []outVC
	// vcRanges caches classRange: entry qc*(numClasses+1)+class+1 is QoS
	// class qc's VC slice for routing class class (AnyClass at +0), so VC
	// allocation does no divides per candidate.
	vcRanges []vcRange

	// pipes[p] models the router pipeline plus the outgoing link of output
	// port p: SA winners land here and emerge tr+linkDelay cycles later
	// (tr only, for the ejection port).
	pipes []*sim.DelayLine[Flit]
	// creditPipes[p] carries credits returning from the downstream router
	// attached to output port p (nil for ejection).
	creditPipes []*sim.DelayLine[int]

	up []upstreamRef

	// occupancy counts flits held in input buffers; inFlight counts flits
	// inside pipes. A router with both zero and no pending credits can be
	// skipped entirely.
	occupancy      int
	inFlight       int
	pendingCredits int

	// wake, when non-nil, is invoked whenever the router transitions from
	// idle to non-idle (a flit or a credit arrives at an idle router). The
	// network uses it to maintain the active-router set so Step and deliver
	// touch only routers with work. It must be idempotent.
	wake func()
	// awake mirrors the router's membership in the network's active set:
	// raised when wake fires, lowered by ClearAwake when the network
	// deregisters the router. It turns the per-arrival idle-transition
	// check into a single flag test.
	awake bool

	// dead marks a hard-killed router: its state has been purged and it
	// accepts neither flits nor credits. linkDown has bit p set while output
	// port p's channel is in an outage window: the port delivers no flits
	// and drains no credits. Both stay zero outside fault-injection runs, so
	// the fault checks on the hot paths never divert.
	dead     bool
	linkDown uint64

	// maskHot is true when ports*VCs fits in 64 bits, enabling the input-VC
	// state bitmasks below. The compute phases then iterate only VCs that
	// can make progress, in the same ascending/rotated order as the full
	// scans, so the fast path is bit-identical to the fallback. Bit p*VCs+v
	// denotes input VC (p, v).
	maskHot bool
	// legacyScan, set via SetLegacyScan, restores the pre-mask nested-loop
	// compute phases. The network's full-scan mode enables it so the legacy
	// path keeps the reference implementation's cost model and exercises
	// the original scan order as a determinism oracle for the mask paths.
	legacyScan bool
	occMask    uint64 // input VC holds at least one flit
	reqMask    uint64 // front packet routed but not yet granted an output VC
	gntMask    uint64 // front packet holds an output VC grant
	// gntPorts folds gntMask per input port: bit p is set while any VC of
	// input port p holds a grant. Switch allocation's stage 1 nominates
	// only from these ports.
	gntPorts uint64
	// creditMask has bit p set while output port p's credit pipe is
	// non-empty, so drainCredits touches only ports with credits in
	// flight. Indexed by port, not by VC, so it needs only ports <= 64.
	creditMask uint64
	// pipeMask has bit p set while output port p's pipeline holds at least
	// one flit, so the deliver phase visits only ports with in-flight work.
	// Router radix is bounded well below 64 for every supported topology.
	pipeMask uint64

	// Arbitration state.
	vaPtr    int
	saInPtr  []int
	saOutPtr []int

	// Per-cycle scratch, reused to avoid allocation.
	saInWin    []int // per input port: winning VC index or -1
	saInMatch  []bool
	saOutMatch []bool
	// saReq[outP] collects, during the mask path's stage 1, the input ports
	// whose nomination targets output outP; stage 2 picks from it directly.
	saReq     []uint64
	vaScratch []int
	vaReqs    []vaReq

	// Stats.
	FlitsRouted int64
	// portFlits counts flits forwarded through each output port, for
	// channel-utilization analysis.
	portFlits []int64

	// tracer, when non-nil, records head-flit lifecycle events
	// (route/VC-alloc/switch); nil keeps the hot path untouched.
	tracer *obs.Tracer

	// creditSink, when non-nil, receives credits destined for cross-tile
	// upstream routers (see upstreamRef.cross) instead of their being
	// applied in place; the sharded network drains the sink serially after
	// the parallel compute phase. Deferral is behaviour-preserving: a
	// credit pushed at cycle c is never ready before c+2 (link delay >= 1
	// plus the processing cycle), so applying it before or after the
	// upstream's own compute step yields the identical end-of-cycle state.
	creditSink func(up *Router, port, vc int)
}

// New constructs the router for node id of the given topology. Callers must
// have validated cfg. Upstream references are wired afterwards by the
// network via SetUpstream.
func New(id int, t *topology.Topology, alg routing.Algorithm, cfg Config) *Router {
	ports := t.Ports()
	r := &Router{
		ID:          id,
		topo:        t,
		alg:         alg,
		cfg:         cfg,
		ports:       ports,
		in:          make([]inVC, ports*cfg.VCs),
		out:         make([]outVC, ports*cfg.VCs),
		pipes:       make([]*sim.DelayLine[Flit], ports),
		creditPipes: make([]*sim.DelayLine[int], ports),
		up:          make([]upstreamRef, ports),
		saInPtr:     make([]int, ports),
		saOutPtr:    make([]int, ports),
		saInWin:     make([]int, ports),
		saInMatch:   make([]bool, ports),
		saOutMatch:  make([]bool, ports),
		saReq:       make([]uint64, ports),
		portFlits:   make([]int64, ports),
	}
	r.maskHot = ports*cfg.VCs <= 64
	r.local = t.LocalPort()
	r.numClasses = alg.NumClasses(t)
	r.qos = cfg.Classes
	if r.qos < 1 {
		r.qos = 1
	}
	r.strict = r.qos > 1 && cfg.ClassArb == StrictPriority
	r.vcQoS = make([]int8, cfg.VCs)
	r.qosMasks = make([]uint64, r.qos)
	for qc := 0; qc < r.qos; qc++ {
		lo, hi := r.qosRange(qc)
		for v := lo; v < hi; v++ {
			r.vcQoS[v] = int8(qc)
			for p := 0; p < ports; p++ {
				r.qosMasks[qc] |= 1 << uint(p*cfg.VCs+v)
			}
		}
	}
	r.vcRanges = make([]vcRange, 0, r.qos*(r.numClasses+1))
	for qc := 0; qc < r.qos; qc++ {
		for class := routing.AnyClass; class < r.numClasses; class++ {
			lo, hi := r.classRange(qc, class)
			r.vcRanges = append(r.vcRanges, vcRange{lo, hi})
		}
	}
	for p := 0; p < ports; p++ {
		outs := r.out[p*cfg.VCs : (p+1)*cfg.VCs]
		for v := 0; v < cfg.VCs; v++ {
			r.in[p*cfg.VCs+v].buf = sim.MakeBoundedFIFO[Flit](cfg.BufDepth)
		}
		switch {
		case p == r.local:
			for v := range outs {
				outs[v].credits = ejectionCredits
			}
			r.pipes[p] = sim.NewDelayLine[Flit](cfg.Delay)
		default:
			link := t.LinkAt(id, p)
			if link.Connected() {
				for v := range outs {
					outs[v].credits = cfg.BufDepth
				}
				r.pipes[p] = sim.NewDelayLine[Flit](cfg.Delay + link.Delay)
				// Credits pay the reverse link plus one credit-processing
				// cycle at the receiving router.
				r.creditPipes[p] = sim.NewDelayLine[int](link.Delay + 1)
			}
		}
	}
	return r
}

// SetUpstream records that our input port is fed by the given upstream
// router's output port, so credits can be returned.
func (r *Router) SetUpstream(inPort int, up *Router, upPort int) {
	r.up[inPort] = upstreamRef{r: up, port: upPort}
}

// SetUpstreamCross marks input port inPort's upstream router as belonging
// to a different shard tile, routing its credits through the credit sink.
// Wiring-time only.
func (r *Router) SetUpstreamCross(inPort int) { r.up[inPort].cross = true }

// SetCreditSink installs the deferred-credit hook for cross-tile upstream
// references. Nil (the default) applies every credit in place. Wiring-time
// only.
func (r *Router) SetCreditSink(f func(up *Router, port, vc int)) { r.creditSink = f }

// SetTracer attaches a flit-lifecycle tracer (nil detaches it).
func (r *Router) SetTracer(t *obs.Tracer) { r.tracer = t }

// ClearAwake is called by the network when it removes the router from the
// active set; the next flit or credit arrival fires the wake callback
// again. Callers must only clear an Idle router, or arrivals would
// re-register a router that is already registered — harmless (markActive
// is idempotent) but wasted work.
func (r *Router) ClearAwake() { r.awake = false }

// SetWake registers the idle-to-active notification callback (nil, the
// default, disables notification; direct router tests need no network).
func (r *Router) SetWake(f func()) { r.wake = f }

// SampleVCOccupancy returns the average and maximum buffer occupancy in
// flits across every input VC. It walks all buffers, so it is meant for
// sampling-time use, not the per-cycle path.
func (r *Router) SampleVCOccupancy() (avg float64, max int) {
	for i := range r.in {
		if n := r.in[i].buf.Len(); n > max {
			max = n
		}
	}
	if len(r.in) > 0 {
		avg = float64(r.occupancy) / float64(len(r.in))
	}
	return avg, max
}

// qosRange maps a QoS class to its slice [lo, hi) of the VC space. With a
// single class this is the whole space.
func (r *Router) qosRange(qc int) (lo, hi int) {
	lo = qc * r.cfg.VCs / r.qos
	hi = (qc + 1) * r.cfg.VCs / r.qos
	return lo, hi
}

// classRange maps a routing VC class to its VC index range [lo, hi) within
// QoS class qc's partition. With one QoS class the partition is the whole
// VC space and the formula reduces to the classic routing-class split.
func (r *Router) classRange(qc, class int) (lo, hi int) {
	qlo, qhi := r.qosRange(qc)
	if class == routing.AnyClass {
		return qlo, qhi
	}
	w := qhi - qlo
	c := r.numClasses
	lo = qlo + class*w/c
	hi = qlo + (class+1)*w/c
	return lo, hi
}

// AcceptFlit places a delivered flit into the input buffer (port, vc). It
// panics if the buffer is full: credit-based flow control guarantees space,
// so overflow indicates a simulator bug.
func (r *Router) AcceptFlit(port, vc int, f Flit) {
	if f.Head() {
		f.P.Route.ArriveAt(r.ID)
	}
	if !r.awake && r.wake != nil {
		r.awake = true
		r.wake()
	}
	flat := port*r.cfg.VCs + vc
	if !r.in[flat].buf.Push(f) {
		panic(fmt.Sprintf("router %d: input buffer overflow at port %d vc %d", r.ID, port, vc))
	}
	r.occupancy++
	r.occMask |= 1 << uint(flat)
}

// CanAcceptInjection reports whether the injection buffer (local port,
// VC 0) has space for another flit.
func (r *Router) CanAcceptInjection() bool {
	return !r.in[r.local*r.cfg.VCs].buf.Full()
}

// InjectionVC returns the VC index injected flits enter: a single FIFO
// source-queue model per the open-loop methodology.
func (r *Router) InjectionVC() int { return 0 }

// CanAcceptInjectionClass reports whether QoS class qc's injection buffer
// has space for another flit. Each class injects through the first VC of
// its own partition, so a backed-up low-priority class never blocks
// high-priority injection. With one class this is CanAcceptInjection.
func (r *Router) CanAcceptInjectionClass(qc int) bool {
	lo, _ := r.qosRange(qc)
	return !r.in[r.local*r.cfg.VCs+lo].buf.Full()
}

// InjectionVCClass returns the VC index class qc's injected flits enter:
// the first VC of the class's partition (VC 0 for a single class).
func (r *Router) InjectionVCClass(qc int) int {
	lo, _ := r.qosRange(qc)
	return lo
}

// SetLegacyScan toggles the reference nested-loop compute paths. With v
// true the router ignores its state bitmasks and scans every port and VC
// exactly the way the pre-optimization implementation did; the masks are
// still maintained, so the mode can be flipped between runs. The
// network's full-scan mode uses this to keep the legacy path an honest
// baseline and the determinism tests a reference-vs-optimized oracle.
func (r *Router) SetLegacyScan(v bool) {
	r.legacyScan = v
	r.maskHot = !v && r.ports*r.cfg.VCs <= 64
}

// receiveCredit schedules a credit return for output VC (port, vc); it
// becomes usable after the link delay.
func (r *Router) receiveCredit(now int64, port, vc int) {
	if r.dead {
		// Credits sent to a killed router vanish with it; accepting them
		// would leave it permanently non-idle.
		return
	}
	if !r.awake && r.wake != nil {
		r.awake = true
		r.wake()
	}
	r.creditPipes[port].Push(now, vc)
	r.pendingCredits++
	r.creditMask |= 1 << uint(port)
}

// PopDelivery removes the flit, if any, emerging from output port p's
// pipeline at cycle now.
func (r *Router) PopDelivery(now int64, p int) (Flit, bool) {
	if r.pipes[p] == nil || r.linkDown&(1<<uint(p)) != 0 {
		return Flit{}, false
	}
	f, ok := r.pipes[p].PopReady(now)
	if ok {
		r.inFlight--
		if r.pipes[p].Len() == 0 {
			r.pipeMask &^= 1 << uint(p)
		}
	}
	return f, ok
}

// PipeMask returns the bitmask of output ports whose pipelines currently
// hold in-flight flits; the deliver phase iterates only these ports.
func (r *Router) PipeMask() uint64 { return r.pipeMask }

// PortFlits returns the number of flits forwarded through output port p
// since construction.
func (r *Router) PortFlits(p int) int64 { return r.portFlits[p] }

// Idle reports whether the router holds no flits and no pending credits.
func (r *Router) Idle() bool {
	return r.occupancy == 0 && r.inFlight == 0 && r.pendingCredits == 0
}

// Occupancy returns the number of flits buffered in input VCs.
func (r *Router) Occupancy() int { return r.occupancy }

// InFlight returns the number of flits inside the router/link pipelines.
func (r *Router) InFlight() int { return r.inFlight }

// Step performs one compute cycle: credit intake, route computation, VC
// allocation and switch allocation. Flit movement between routers is
// handled by the network's deliver phase.
func (r *Router) Step(now int64) {
	if r.Idle() {
		return
	}
	r.drainCredits(now)
	if r.occupancy == 0 {
		return
	}
	r.routeCompute(now)
	r.vcAllocate(now)
	r.switchAllocate(now)
}

func (r *Router) drainCredits(now int64) {
	if r.pendingCredits == 0 {
		return
	}
	if !r.maskHot {
		for p := 0; p < r.ports; p++ {
			cp := r.creditPipes[p]
			if cp == nil || r.linkDown&(1<<uint(p)) != 0 {
				continue
			}
			for {
				vc, ok := cp.PopReady(now)
				if !ok {
					break
				}
				r.out[p*r.cfg.VCs+vc].credits++
				r.pendingCredits--
			}
			if cp.Len() == 0 {
				r.creditMask &^= 1 << uint(p)
			}
		}
		return
	}
	for m := r.creditMask &^ r.linkDown; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		cp := r.creditPipes[p]
		for {
			vc, ok := cp.PopReady(now)
			if !ok {
				break
			}
			r.out[p*r.cfg.VCs+vc].credits++
			r.pendingCredits--
		}
		if cp.Len() == 0 {
			r.creditMask &^= 1 << uint(p)
		}
	}
}

// routeCompute fills in candidates for every input VC whose front flit is
// an unrouted head. A VC's front packet is routed exactly while its bit is
// set in reqMask or gntMask, so the mask path visits only the occupied VCs
// outside both — near saturation most occupied VCs hold routed packets
// waiting for an output — in the same ascending (port, vc) order as the
// full scan.
func (r *Router) routeCompute(now int64) {
	if r.maskHot {
		for m := r.occMask &^ (r.reqMask | r.gntMask); m != 0; m &= m - 1 {
			r.routeVC(now, bits.TrailingZeros64(m))
		}
		return
	}
	for flat := range r.in {
		r.routeVC(now, flat)
	}
}

// routeVC routes the front packet of input VC flat if it is an unrouted
// head flit.
func (r *Router) routeVC(now int64, flat int) {
	ivc := &r.in[flat]
	if ivc.routed {
		return
	}
	f, ok := ivc.buf.Peek()
	if !ok || !f.Head() {
		return
	}
	ivc.cands = r.alg.Candidates(r.topo, r.ID, f.P.Dst, &f.P.Route, ivc.cands[:0])
	if len(ivc.cands) == 0 {
		panic(fmt.Sprintf("router %d: no route for packet %d (dst %d)", r.ID, f.P.ID, f.P.Dst))
	}
	ivc.routed = true
	r.reqMask |= 1 << uint(flat)
	if r.tracer != nil {
		r.tracer.Record(now, f.P.ID, r.ID, obs.PhaseRoute)
	}
}

// vcAllocate grants free output VCs to routed-but-ungranted input VCs.
// Requests are served in round-robin or age order; each request picks the
// free VC with the most credits among its candidates, which doubles as the
// congestion-sensitive output selection of adaptive routing.
func (r *Router) vcAllocate(now int64) {
	total := len(r.in)
	if r.maskHot && r.cfg.Arb != AgeBased {
		// Round robin over the request mask: bits >= vaPtr in ascending
		// order, then the wrap-around below it — exactly the (vaPtr+i)%total
		// visiting order of the full scan, touching only actual requests.
		// Under strict priority the rotation runs class by class; classes
		// own disjoint VC partitions, so this changes the service order,
		// never which output VCs are reachable.
		if r.reqMask != 0 {
			below := uint64(1)<<uint(r.vaPtr) - 1
			if r.strict {
				for qc := 0; qc < r.qos; qc++ {
					cm := r.reqMask & r.qosMasks[qc]
					for m := cm &^ below; m != 0; m &= m - 1 {
						r.vaTryGrant(now, bits.TrailingZeros64(m))
					}
					for m := cm & below; m != 0; m &= m - 1 {
						r.vaTryGrant(now, bits.TrailingZeros64(m))
					}
				}
			} else {
				for m := r.reqMask &^ below; m != 0; m &= m - 1 {
					r.vaTryGrant(now, bits.TrailingZeros64(m))
				}
				for m := r.reqMask & below; m != 0; m &= m - 1 {
					r.vaTryGrant(now, bits.TrailingZeros64(m))
				}
			}
		}
		r.vaPtr++
		if r.vaPtr >= total {
			r.vaPtr = 0
		}
		return
	}
	for _, flat := range r.vaOrder() {
		r.vaTryGrant(now, flat)
	}
	r.vaPtr = (r.vaPtr + 1) % total
}

// vaTryGrant gives input VC flat the free candidate output VC with the
// most credits, if it is requesting and one is available.
func (r *Router) vaTryGrant(now int64, flat int) {
	ivc := &r.in[flat]
	if !ivc.routed || ivc.granted {
		return
	}
	vcs := r.cfg.VCs
	p := flat / vcs
	// The packet's QoS class is static per input VC (see vcQoS); its
	// output-VC candidates come from the matching partition downstream.
	ranges := r.vcRanges[int(r.vcQoS[flat-p*vcs])*(r.numClasses+1):]
	bestPort, bestVC, bestClass, bestCred := -1, -1, routing.AnyClass, -1
	for _, c := range ivc.cands {
		rg := ranges[c.Class+1]
		outs := r.out[c.Port*vcs:]
		for ov := rg.lo; ov < rg.hi; ov++ {
			o := &outs[ov]
			if o.owned {
				continue
			}
			if o.credits > bestCred {
				bestPort, bestVC, bestClass, bestCred = c.Port, ov, c.Class, o.credits
			}
		}
	}
	if bestPort >= 0 {
		ivc.granted = true
		ivc.outPort, ivc.outVC, ivc.outClass = bestPort, bestVC, bestClass
		r.out[bestPort*vcs+bestVC].owned = true
		r.reqMask &^= 1 << uint(flat)
		r.gntMask |= 1 << uint(flat)
		r.gntPorts |= 1 << uint(p)
		if r.tracer != nil {
			if f, ok := ivc.buf.Peek(); ok {
				r.tracer.Record(now, f.P.ID, r.ID, obs.PhaseVCAlloc)
			}
		}
	}
}

// vaReq is one age-ordered VC allocation request (see vaOrder).
type vaReq struct {
	flat int
	qc   int8
	age  int64
}

// vaOrder returns the order in which VC allocation requests are served.
// The returned slice is scratch storage reused across cycles.
func (r *Router) vaOrder() []int {
	total := len(r.in)
	order := r.vaScratch[:0]
	if r.cfg.Arb == AgeBased {
		// Oldest front packet first (insertion sort; total is small).
		// Under strict priority the key is (class, age): all class-0
		// requests precede class 1, age ordering within each class.
		reqs := r.vaReqs[:0]
		for flat := range r.in {
			ivc := &r.in[flat]
			if !ivc.routed || ivc.granted {
				continue
			}
			f, ok := ivc.buf.Peek()
			if !ok {
				continue
			}
			q := vaReq{flat: flat, age: f.P.CreateTime}
			if r.strict {
				q.qc = r.vcQoS[flat%r.cfg.VCs]
			}
			reqs = append(reqs, q)
		}
		for i := 1; i < len(reqs); i++ {
			for j := i; j > 0 && (reqs[j].qc < reqs[j-1].qc ||
				(reqs[j].qc == reqs[j-1].qc && reqs[j].age < reqs[j-1].age)); j-- {
				reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
			}
		}
		for _, q := range reqs {
			order = append(order, q.flat)
		}
		r.vaReqs = reqs[:0]
	} else if r.strict {
		// Class-major rotation: class 0's requests in (vaPtr+i)%total
		// order, then class 1's, and so on.
		for qc := int8(0); int(qc) < r.qos; qc++ {
			for i := 0; i < total; i++ {
				flat := (r.vaPtr + i) % total
				if r.vcQoS[flat%r.cfg.VCs] == qc {
					order = append(order, flat)
				}
			}
		}
	} else {
		for i := 0; i < total; i++ {
			order = append(order, (r.vaPtr+i)%total)
		}
	}
	r.vaScratch = order[:0]
	return order
}

// switchAllocate performs the two-stage separable switch allocation and
// forwards the winning flits into the output pipelines. With SAIterations
// > 1, unmatched ports get further matching passes (iSLIP).
func (r *Router) switchAllocate(now int64) {
	if r.maskHot && r.gntMask == 0 {
		// No input VC holds an output grant, so no port can nominate: the
		// full allocation would match nothing and change no state.
		return
	}
	iters := r.cfg.SAIterations
	if iters < 1 {
		iters = 1
	}
	if r.maskHot {
		r.switchAllocateMask(now, iters)
		return
	}
	for p := 0; p < r.ports; p++ {
		r.saInMatch[p] = false
		r.saOutMatch[p] = false
	}
	for it := 0; it < iters; it++ {
		// Stage 1: each unmatched input port nominates one ready VC.
		for p := 0; p < r.ports; p++ {
			if r.saInMatch[p] {
				r.saInWin[p] = -1
				continue
			}
			r.saInWin[p] = r.pickInputVC(p)
		}
		// Stage 2: each unmatched output port picks one requesting input,
		// visiting every port in ascending order as the reference
		// implementation did.
		progress := false
		for outP := 0; outP < r.ports; outP++ {
			if r.saOutMatch[outP] {
				continue
			}
			win := r.pickInputPort(outP)
			if win < 0 {
				continue
			}
			r.forward(now, win, r.saInWin[win])
			r.saInMatch[win] = true
			r.saOutMatch[outP] = true
			progress = true
		}
		if !progress {
			break
		}
	}
}

// switchAllocateMask is the bitmask fast path of switchAllocate. It tracks
// matched inputs/outputs and current nominations in port masks instead of
// the per-cycle scratch arrays, so stage 1 touches only ports holding a VC
// grant (gntPorts) and stage 2 only the outputs those nominations target.
// Both stages visit ports in the same order as the reference scans minus
// ports that could not match, so matching — and therefore every forward —
// is bit-identical to the legacy path.
func (r *Router) switchAllocateMask(now int64, iters int) {
	// Class-blind round robin picks each stage-2 winner straight from the
	// output's requester mask; strict priority and age keep the port scan.
	rotate := !r.strict && r.cfg.Arb != AgeBased
	var inMatched, outMatched uint64
	for it := 0; it < iters; it++ {
		// Stage 1: each unmatched input port with a granted VC nominates
		// one ready VC. nom records which saInWin entries are live this
		// iteration; entries of non-nominating ports are stale and must
		// never be read. saReq[outP] gathers the nominations per output.
		var targets, nom uint64
		for m := r.gntPorts &^ inMatched; m != 0; m &= m - 1 {
			p := bits.TrailingZeros64(m)
			v := r.pickInputVC(p)
			if v >= 0 {
				r.saInWin[p] = v
				nom |= 1 << uint(p)
				outP := r.in[p*r.cfg.VCs+v].outPort
				targets |= 1 << uint(outP)
				r.saReq[outP] |= 1 << uint(p)
			}
		}
		// Stage 2: each unmatched targeted output picks one nominating
		// input, in ascending output-port order. Every input nominates a
		// single output, so an input matched earlier in this stage never
		// appears in a later output's saReq.
		progress := false
		for t := targets &^ outMatched; t != 0; t &= t - 1 {
			outP := bits.TrailingZeros64(t)
			var win int
			if rotate {
				win = firstFrom(r.saReq[outP], r.saOutPtr[outP])
			} else if win = r.pickInputPortMask(outP, nom); win < 0 {
				continue
			}
			r.forward(now, win, r.saInWin[win])
			inMatched |= 1 << uint(win)
			nom &^= 1 << uint(win)
			outMatched |= 1 << uint(outP)
			progress = true
		}
		for t := targets; t != 0; t &= t - 1 {
			r.saReq[bits.TrailingZeros64(t)] = 0
		}
		if !progress {
			break
		}
	}
}

// firstFrom returns the first set bit of the nonzero mask m met by a
// round-robin scan starting at bit from: the lowest set bit >= from, else
// the lowest set bit overall.
func firstFrom(m uint64, from int) int {
	if hi := m >> uint(from) << uint(from); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(m)
}

// pickInputVC returns the index of the VC at input port p that wins the
// port's crossbar input this cycle, or -1. Under strict priority the
// lowest-class ready VC wins; the configured policy (rotation order or
// age) breaks ties within the winning class.
func (r *Router) pickInputVC(p int) int {
	v := r.cfg.VCs
	base := p * v
	if r.maskHot {
		// A VC can be ready only while it holds a grant and a flit.
		ready := (r.gntMask & r.occMask) >> uint(base) & (uint64(1)<<uint(v) - 1)
		if ready == 0 {
			return -1
		}
		if !r.strict && r.cfg.Arb != AgeBased {
			// Round robin: the first ready VC with a downstream credit in
			// rotation order from saInPtr, as the scan below would find.
			from := r.saInPtr[p]
			for m := ready >> uint(from) << uint(from); m != 0; m &= m - 1 {
				if cand := bits.TrailingZeros64(m); r.hasCredit(base + cand) {
					return cand
				}
			}
			for m := ready & (uint64(1)<<uint(from) - 1); m != 0; m &= m - 1 {
				if cand := bits.TrailingZeros64(m); r.hasCredit(base + cand) {
					return cand
				}
			}
			return -1
		}
	}
	best := -1
	bestClass := int8(127)
	var bestAge int64
	for i := 0; i < v; i++ {
		cand := r.saInPtr[p] + i
		if cand >= v {
			cand -= v
		}
		ivc := &r.in[base+cand]
		if !ivc.granted {
			continue
		}
		f, ok := ivc.buf.Peek()
		if !ok {
			continue
		}
		if !r.hasCredit(base + cand) {
			continue
		}
		if r.strict {
			qc := r.vcQoS[cand]
			switch {
			case r.cfg.Arb == AgeBased:
				if best < 0 || qc < bestClass || (qc == bestClass && f.P.CreateTime < bestAge) {
					best, bestClass, bestAge = cand, qc, f.P.CreateTime
				}
			case qc < bestClass:
				// First ready VC of the lowest class in rotation order.
				best, bestClass = cand, qc
				if qc == 0 {
					return best
				}
			}
			continue
		}
		if r.cfg.Arb == AgeBased {
			if best < 0 || f.P.CreateTime < bestAge {
				best, bestAge = cand, f.P.CreateTime
			}
		} else {
			return cand // first in round-robin order wins
		}
	}
	return best
}

// hasCredit reports whether granted input VC flat's output VC has a free
// downstream buffer slot.
func (r *Router) hasCredit(flat int) bool {
	ivc := &r.in[flat]
	return r.out[ivc.outPort*r.cfg.VCs+ivc.outVC].credits > 0
}

// pickInputPortMask is pickInputPort for the mask fast path under strict
// priority or age-based arbitration: nom marks the input ports whose
// saInWin entry is a live nomination from the current stage 1; all other
// entries are stale and skipped. The visit order is unchanged.
func (r *Router) pickInputPortMask(outP int, nom uint64) int {
	best := -1
	bestClass := int8(127)
	var bestAge int64
	for i := 0; i < r.ports; i++ {
		cand := r.saOutPtr[outP] + i
		if cand >= r.ports {
			cand -= r.ports
		}
		if nom&(1<<uint(cand)) == 0 {
			continue
		}
		ivc := &r.in[cand*r.cfg.VCs+r.saInWin[cand]]
		if ivc.outPort != outP {
			continue
		}
		if r.strict {
			qc := r.vcQoS[r.saInWin[cand]]
			switch {
			case r.cfg.Arb == AgeBased:
				f, _ := ivc.buf.Peek()
				if best < 0 || qc < bestClass || (qc == bestClass && f.P.CreateTime < bestAge) {
					best, bestClass, bestAge = cand, qc, f.P.CreateTime
				}
			case qc < bestClass:
				best, bestClass = cand, qc
				if qc == 0 {
					return best
				}
			}
			continue
		}
		if r.cfg.Arb == AgeBased {
			f, _ := ivc.buf.Peek()
			if best < 0 || f.P.CreateTime < bestAge {
				best, bestAge = cand, f.P.CreateTime
			}
		} else {
			return cand
		}
	}
	return best
}

// pickInputPort returns the input port whose nominated flit wins output
// port outP this cycle, or -1.
func (r *Router) pickInputPort(outP int) int {
	best := -1
	bestClass := int8(127)
	var bestAge int64
	for i := 0; i < r.ports; i++ {
		cand := r.saOutPtr[outP] + i
		if cand >= r.ports {
			cand -= r.ports
		}
		v := r.saInWin[cand]
		if v < 0 {
			continue
		}
		ivc := &r.in[cand*r.cfg.VCs+v]
		if ivc.outPort != outP {
			continue
		}
		if r.strict {
			qc := r.vcQoS[v]
			switch {
			case r.cfg.Arb == AgeBased:
				f, _ := ivc.buf.Peek()
				if best < 0 || qc < bestClass || (qc == bestClass && f.P.CreateTime < bestAge) {
					best, bestClass, bestAge = cand, qc, f.P.CreateTime
				}
			case qc < bestClass:
				best, bestClass = cand, qc
				if qc == 0 {
					return best
				}
			}
			continue
		}
		if r.cfg.Arb == AgeBased {
			f, _ := ivc.buf.Peek()
			if best < 0 || f.P.CreateTime < bestAge {
				best, bestAge = cand, f.P.CreateTime
			}
		} else {
			best = cand
			break
		}
	}
	return best
}

// forward moves the winning flit from input (p, v) into its output
// pipeline, maintaining credits, ownership and routing state.
func (r *Router) forward(now int64, p, v int) {
	flat := p*r.cfg.VCs + v
	ivc := &r.in[flat]
	f, _ := ivc.buf.Pop()
	r.occupancy--
	if ivc.buf.Len() == 0 {
		r.occMask &^= 1 << uint(flat)
	}
	r.FlitsRouted++
	outP, outV := ivc.outPort, ivc.outVC
	o := &r.out[outP*r.cfg.VCs+outV]

	if outP != r.local {
		o.credits--
		if f.Head() {
			r.alg.Committed(r.topo, &f.P.Route, ivc.outClass)
			f.P.Route.Traverse(r.topo.LinkAt(r.ID, outP))
			f.P.Hops++
		}
	}
	f.VC = int32(outV)
	r.pipes[outP].Push(now, f)
	r.inFlight++
	r.pipeMask |= 1 << uint(outP)
	r.portFlits[outP]++
	if r.tracer != nil && f.Head() {
		r.tracer.Record(now, f.P.ID, r.ID, obs.PhaseSwitch)
	}

	// Return a credit for the buffer slot we just freed. Cross-tile
	// credits are deferred through the sink so parallel tile steps never
	// touch another tile's router; each input port forwards at most one
	// flit per cycle, so deferral cannot reorder credits within a pipe.
	if up := r.up[p]; up.r != nil {
		if up.cross && r.creditSink != nil {
			r.creditSink(up.r, up.port, v)
		} else {
			up.r.receiveCredit(now, up.port, v)
		}
	}

	if f.Tail() {
		o.owned = false
		ivc.reset()
		r.gntMask &^= 1 << uint(flat)
		if r.gntMask>>uint(p*r.cfg.VCs)&(uint64(1)<<uint(r.cfg.VCs)-1) == 0 {
			r.gntPorts &^= 1 << uint(p)
		}
	}
	// Advance round-robin pointers past the winners.
	if v+1 == r.cfg.VCs {
		r.saInPtr[p] = 0
	} else {
		r.saInPtr[p] = v + 1
	}
	if p+1 == r.ports {
		r.saOutPtr[outP] = 0
	} else {
		r.saOutPtr[outP] = p + 1
	}
	// The winner consumed this input port's nomination.
	r.saInWin[p] = -1
}

// --- Fault-injection support ----------------------------------------------
//
// The methods below exist for internal/fault and its invariant harness.
// None of them is called on fault-free runs, and the two flags they set
// (dead, linkDown) cost the hot paths only the always-false checks wired in
// above.

// Dead reports whether the router has been hard-killed.
func (r *Router) Dead() bool { return r.dead }

// LinkIsDown reports whether output port p is inside an outage window.
func (r *Router) LinkIsDown(p int) bool { return r.linkDown&(1<<uint(p)) != 0 }

// SetLinkDown opens or closes an outage window on output port p: a down
// port delivers no flits and drains no returning credits, freezing the
// channel's contents in place. Flow control stays intact — forwarding into
// the down channel stops once its credits exhaust, and everything frozen
// resumes when the window closes.
func (r *Router) SetLinkDown(p int, down bool) {
	if down {
		r.linkDown |= 1 << uint(p)
	} else {
		r.linkDown &^= 1 << uint(p)
	}
}

// Kill hard-fails the router at cycle now: every buffered flit, in-flight
// pipeline flit and queued credit is purged, with onFlit invoked for each
// discarded flit so the network can account the loss. Credits for purged
// input-buffer flits are bounced upstream (the buffer slots are gone with
// the router, but the upstream's credit counters must stay conserved for
// the surviving fabric). A dead router accepts neither flits nor credits;
// deliveries into it are discarded by the network.
func (r *Router) Kill(now int64, onFlit func(f Flit)) {
	if r.dead {
		return
	}
	r.dead = true
	for p := 0; p < r.ports; p++ {
		for v := 0; v < r.cfg.VCs; v++ {
			ivc := &r.in[p*r.cfg.VCs+v]
			for {
				f, ok := ivc.buf.Pop()
				if !ok {
					break
				}
				onFlit(f)
				if up := r.up[p]; up.r != nil {
					up.r.receiveCredit(now, up.port, v)
				}
			}
			ivc.reset()
		}
		if pp := r.pipes[p]; pp != nil {
			pp.Drain(func(f Flit) { onFlit(f) })
		}
		if cp := r.creditPipes[p]; cp != nil {
			cp.Drain(func(int) {})
		}
	}
	for i := range r.out {
		r.out[i].owned = false
	}
	r.occupancy, r.inFlight, r.pendingCredits = 0, 0, 0
	r.occMask, r.reqMask, r.gntMask, r.gntPorts = 0, 0, 0, 0
	r.creditMask, r.pipeMask = 0, 0
}

// ReturnCredit bounces a credit for output VC (port, vc) back to this
// router, as if the discarded flit had been accepted downstream and
// instantly forwarded. The fault layer uses it when a delivery is discarded
// (drop, dead packet, dead destination) so sender-side credits never leak.
func (r *Router) ReturnCredit(now int64, port, vc int) { r.receiveCredit(now, port, vc) }

// OutCredits returns the credit count of output VC (p, vc); invariant
// checking compares it against the downstream buffer state.
func (r *Router) OutCredits(p, vc int) int { return r.out[p*r.cfg.VCs+vc].credits }

// OutOwned reports whether output VC (p, vc) is currently allocated to an
// in-flight packet.
func (r *Router) OutOwned(p, vc int) bool { return r.out[p*r.cfg.VCs+vc].owned }

// InBufLen returns the number of flits buffered in input VC (p, vc).
func (r *Router) InBufLen(p, vc int) int { return r.in[p*r.cfg.VCs+vc].buf.Len() }

// PipeFlitsVC counts the flits in output port p's pipeline traveling on
// VC vc.
func (r *Router) PipeFlitsVC(p, vc int) int {
	if r.pipes[p] == nil {
		return 0
	}
	n := 0
	r.pipes[p].ForEach(func(f Flit) {
		if int(f.VC) == vc {
			n++
		}
	})
	return n
}

// CreditsInFlight counts the credits for VC vc queued in output port p's
// credit pipe.
func (r *Router) CreditsInFlight(p, vc int) int {
	if r.creditPipes[p] == nil {
		return 0
	}
	n := 0
	r.creditPipes[p].ForEach(func(v int) {
		if v == vc {
			n++
		}
	})
	return n
}

// PendingCredits returns the number of credits queued in this router's
// credit pipes (for stuck-state dumps).
func (r *Router) PendingCredits() int { return r.pendingCredits }

// StuckVCs summarizes every input VC holding flits or an unreleased grant,
// for the deadlock watchdog's dump. Each entry reports the VC, its buffer
// depth, and the granted output if any.
func (r *Router) StuckVCs() []StuckVC {
	var out []StuckVC
	for p := 0; p < r.ports; p++ {
		for v := 0; v < r.cfg.VCs; v++ {
			ivc := &r.in[p*r.cfg.VCs+v]
			if ivc.buf.Len() == 0 && !ivc.granted {
				continue
			}
			s := StuckVC{Port: p, VC: v, Buffered: ivc.buf.Len(), Granted: ivc.granted}
			if ivc.granted {
				s.OutPort, s.OutVC = ivc.outPort, ivc.outVC
				s.OutCredits = r.OutCredits(ivc.outPort, ivc.outVC)
			}
			if f, ok := ivc.buf.Peek(); ok {
				s.PacketID = f.P.ID
			}
			out = append(out, s)
		}
	}
	return out
}

// StuckVC describes one input VC that still holds state (see StuckVCs).
type StuckVC struct {
	Port, VC       int
	Buffered       int
	Granted        bool
	OutPort, OutVC int
	OutCredits     int
	PacketID       uint64
}
