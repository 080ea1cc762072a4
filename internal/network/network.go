// Package network assembles cycle-accurate routers into a complete on-chip
// network with one terminal per node, unbounded source queues (the open-loop
// "infinite source queue" model), packet-level send/receive hooks for
// closed-loop protocols, and conservation accounting.
//
// The network advances in whole cycles: each Step first delivers flits and
// credits that finished their pipelines (deliver phase), then lets every
// router compute one RC/VA/SA cycle (compute phase). Terminals inject
// between the two phases, so a flit injected in cycle c can be switched in
// cycle c at the earliest.
package network

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"noceval/internal/fault"
	"noceval/internal/obs"
	"noceval/internal/par"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/sim"
	"noceval/internal/topology"
)

// Config gathers everything needed to build a network.
type Config struct {
	Topo    *topology.Topology
	Routing routing.Algorithm
	Router  router.Config
	Seed    uint64
	// Fault, when non-nil and enabled, wires the fault injector and (with a
	// positive Timeout) the recovery NIC into the network. Nil or all-zero
	// leaves the network bit-identical to a fault-free build.
	Fault *fault.Params
	// Shards partitions the network into that many spatial tiles stepped
	// concurrently inside each cycle (clamped to the topology's row count).
	// 0 or 1 keeps the sequential cycle loop; any value is bit-identical to
	// it — sharding is purely a wall-clock optimization. See DESIGN §12.
	Shards int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Topo == nil {
		return fmt.Errorf("network: nil topology")
	}
	if c.Routing == nil {
		return fmt.Errorf("network: nil routing algorithm")
	}
	if c.Shards < 0 {
		return fmt.Errorf("network: Shards must be >= 0, got %d", c.Shards)
	}
	if err := c.Fault.Validate(c.Topo); err != nil {
		return err
	}
	return c.Router.Validate(c.Topo, c.Routing)
}

// downstream is one entry of Network.down.
type downstream struct {
	r    *router.Router
	to   int
	port int
}

// Receiver observes packets arriving at terminals. Arrival means the tail
// flit reached the destination's ejection port.
type Receiver func(now int64, pkt *router.Packet)

// Network is a complete simulated on-chip network.
type Network struct {
	cfg     Config
	clock   sim.Clock
	rng     *sim.RNG
	routers []*router.Router
	// classes is the QoS class count (>= 1, from Router.Classes); srcQ
	// holds one source queue per node per class, so a backed-up
	// low-priority queue never blocks high-priority injection. Single-class
	// networks use srcQ[node][0] exactly as the classic single queue.
	classes int
	srcQ    [][]*sim.FIFO[router.Flit]
	// down[id*Radix+p] is the router and input port that output port p of
	// router id feeds, so the deliver phase hands a flit over without
	// reading the topology's link table.
	down []downstream

	// OnReceive, when non-nil, is invoked for every packet that fully
	// arrives at its destination terminal.
	OnReceive Receiver
	// OnSend, when non-nil, observes every packet handed to Send (used by
	// the trace recorder).
	OnSend Receiver
	// OnDeadDrop, when non-nil, is invoked when the recovery NIC abandons a
	// transaction after exhausting its retries — the run mode's signal to
	// account the loss. Without a NIC, losses are silent (the run mode sees
	// nothing, exactly like a real network without end-to-end protection).
	OnDeadDrop Receiver

	// faults and nic are non-nil only when cfg.Fault is enabled; every
	// fault hook on the per-cycle paths hides behind a faults nil check so
	// fault-free runs stay bit-identical and allocation-free.
	faults *fault.Injector
	nic    *fault.NIC

	nextPacketID uint64
	// freePkts holds packets handed back through Release, reused by
	// NewPacket. Both run only in serial phases (driver cycles and receive
	// callbacks), so the list needs no lock even on the sharded path.
	freePkts []*router.Packet

	// Activity tracking, kept per spatial tile. Each tile owns a bitset
	// over its contiguous router range with bit b set exactly when router
	// lo+b is not idle (it holds buffered flits, in-flight pipeline flits,
	// or pending credits) — routers register through their wake callback
	// and are deregistered by Step's compute sweep the cycle they go idle.
	// activeCount mirrors the popcount so Quiescent stays O(tiles).
	// srcPending is the analogous bitset over nodes with a nonempty source
	// queue. Both are iterated in ascending id order within a tile and
	// tiles are ascending id ranges, so the active-set paths visit routers
	// and nodes in exactly the order the full scans do. A sequential
	// network is the single tile [0, N); sharded networks (see shard.go)
	// split per-tile so concurrently stepping tiles never share a bitset
	// word.
	tiles  []netTile
	tileOf []int32
	// gang is the resident worker crew stepping tiles concurrently; nil
	// for a sequential (Shards <= 1) network.
	gang *par.Gang
	// fullScan restores the pre-activity-tracking per-cycle full scans of
	// every router and source queue. It exists for one release as the
	// reference path of the determinism regression test; the bitsets are
	// still maintained but not consulted. Full scan also forces the
	// sequential cycle loop, so it doubles as the reference side of the
	// sharded determinism tests.
	fullScan bool

	// Conservation accounting. Every packet object handed to Send ends in
	// exactly one of: arrived, dead (died inside the network), discarded
	// (checksum-rejected at the destination), or dup (redundant incarnation
	// discarded by receiver dedup) — the invariant harness checks the sum.
	// Counters mutated only in serial phases stay global; flit injection
	// and source-queue depth are mutated by the (potentially parallel)
	// inject phase, so they live per tile (see netTile) and are summed on
	// read.
	flitsEjected     int64
	flitsDeadDropped int64 // flits discarded by fault injection
	pktsSent         int64 // packets handed to Send
	pktsArrived      int64
	pktsDead         int64 // packets that died inside the network
	pktsDiscarded    int64 // corrupt packets rejected at the destination
	pktsDup          int64 // duplicate deliveries discarded by the NIC

	// Observability state, all nil/empty until AttachObserver: the per-cycle
	// path pays one nil check when disabled.
	obs          *obs.Observer
	tracer       *obs.Tracer
	nodeInjected []int64 // cumulative terminal flit counts, per node
	nodeEjected  []int64
	// prev* hold the cumulative counter values at the previous sample so
	// each sample reports per-window deltas.
	prevXbar      []int64
	prevPort      [][]int64
	prevInjected  []int64
	prevEjected   []int64
	lastSampleAt  int64
	cFlitInjected *obs.Counter
	cFlitEjected  *obs.Counter
	cPktSent      *obs.Counter
	cPktArrived   *obs.Counter
	// Fault counters, registered only when fault injection is enabled.
	cFaultInjected    *obs.Counter
	cFaultDetected    *obs.Counter
	cFaultRetried     *obs.Counter
	cFaultDeadDropped *obs.Counter
}

// netTile is the per-shard slice of the network's mutable bookkeeping: a
// contiguous router range with its own activity bitsets and the counters
// the inject phase mutates, plus the outboxes the sharded cycle loop
// buffers cross-tile effects in (drained serially at phase boundaries;
// always empty between Steps). Bit b of the bitsets denotes router/node
// lo+b.
type netTile struct {
	lo, hi        int
	active        []uint64
	activeCount   int
	srcPending    []uint64
	queuedFlits   int64 // flits waiting in this tile's source queues
	flitsInjected int64 // flits that entered this tile's injection buffers

	// Deliver-phase outboxes (sharded fault-free path only): terminal
	// ejections and flits bound for another tile's input buffer, applied
	// serially between the deliver and compute phases.
	ejectOut []ejectedFlit
	flitOut  []crossFlit
	// Compute-phase outbox: credits owed to upstream routers in other
	// tiles, applied serially after the compute phase.
	creditOut []crossCredit
}

type ejectedFlit struct {
	id int
	f  router.Flit
}

type crossFlit struct {
	to, toPort int
	f          router.Flit
}

type crossCredit struct {
	up       *router.Router
	port, vc int
}

// New builds a network. It panics on invalid configuration; use
// Config.Validate to check first when the configuration is user-supplied.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := cfg.Topo
	classes := cfg.Router.Classes
	if classes < 1 {
		classes = 1
	}
	n := &Network{
		cfg:     cfg,
		rng:     sim.NewRNG(cfg.Seed),
		routers: make([]*router.Router, t.N),
		classes: classes,
		srcQ:    make([][]*sim.FIFO[router.Flit], t.N),
	}
	parts := t.Partition(max(cfg.Shards, 1))
	n.tiles = make([]netTile, len(parts))
	n.tileOf = make([]int32, t.N)
	for ti, part := range parts {
		words := (part.Len() + 63) / 64
		n.tiles[ti] = netTile{
			lo:         part.Lo,
			hi:         part.Hi,
			active:     make([]uint64, words),
			srcPending: make([]uint64, words),
		}
		for id := part.Lo; id < part.Hi; id++ {
			n.tileOf[id] = int32(ti)
		}
	}
	for i := 0; i < t.N; i++ {
		n.routers[i] = router.New(i, t, cfg.Routing, cfg.Router)
		n.srcQ[i] = make([]*sim.FIFO[router.Flit], classes)
		for qc := range n.srcQ[i] {
			n.srcQ[i][qc] = sim.NewFIFO[router.Flit](16)
		}
		id := i
		n.routers[i].SetWake(func() { n.markActive(id) })
	}
	// Wire upstream references for credit return, and the downstream
	// table the deliver phase reads.
	n.down = make([]downstream, t.N*t.Radix)
	for i := 0; i < t.N; i++ {
		for p := 0; p < t.Radix; p++ {
			link := t.LinkAt(i, p)
			if link.Connected() {
				n.routers[link.To].SetUpstream(link.ToPort, n.routers[i], p)
				n.down[i*t.Radix+p] = downstream{n.routers[link.To], link.To, link.ToPort}
			}
		}
	}
	if len(n.tiles) > 1 {
		n.wireShards(parts)
	}
	if cfg.Fault.Enabled() {
		fp := *cfg.Fault
		seed := fp.Seed
		if seed == 0 {
			seed = cfg.Seed ^ 0x8f1bbcdc9a3f7d21
		}
		n.faults = fault.NewInjector(fp, seed)
		if fp.Timeout > 0 {
			n.nic = fault.NewNIC(fault.NICConfig{
				Timeout:    fp.Timeout,
				MaxRetries: fp.MaxRetries,
				RetryCap:   fp.RetryCap,
				Nodes:      t.N,
				Resend: func(now int64, prev *router.Packet) *router.Packet {
					p := n.NewPacket(prev.Src, prev.Dst, prev.Size, prev.Kind)
					p.Aux = prev.Aux
					p.Measured = prev.Measured
					p.Class = prev.Class
					// A retransmission continues the original transaction:
					// it keeps the original creation time so end-to-end
					// latency honestly includes the recovery delay.
					p.CreateTime = prev.CreateTime
					p.FaultTxn = prev.FaultTxn
					n.cFaultRetried.Inc()
					n.send(p)
					return p
				},
				Abandon: func(now int64, p *router.Packet) {
					if n.OnDeadDrop != nil {
						n.OnDeadDrop(now, p)
					}
				},
			})
		}
	}
	return n
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// SetFullScan switches the per-cycle loops between the activity-tracked
// paths (the default) and the legacy full scans over every router, port,
// and source queue; it also flips the routers to the matching mode, so a
// full-scan network runs the reference nested-loop compute phases rather
// than the state-bitmask ones. Both modes are cycle- and bit-identical;
// full-scan is kept for one release as the reference side of the
// determinism regression test and will be removed.
func (n *Network) SetFullScan(v bool) {
	n.fullScan = v
	for _, r := range n.routers {
		r.SetLegacyScan(v)
	}
}

// markActive inserts router id into its tile's active set. Idempotent:
// routers wake on every flit or credit arrival, which can happen while the
// router is still awaiting its deregistration sweep. During parallel
// phases only the tile's own worker (or the serial apply sections) reaches
// a tile's bitset, so no locking is needed.
func (n *Network) markActive(id int) {
	t := &n.tiles[n.tileOf[id]]
	bit := id - t.lo
	w, b := bit>>6, uint64(1)<<(uint(bit)&63)
	if t.active[w]&b == 0 {
		t.active[w] |= b
		t.activeCount++
	}
}

// AttachObserver wires an observer into the network: aggregate counters
// register into its metrics registry, routers get the flit tracer, and
// Step starts taking per-router telemetry samples on the observer's
// schedule. A nil observer detaches everything (the default).
func (n *Network) AttachObserver(o *obs.Observer) {
	n.obs = o
	if o == nil {
		n.tracer = nil
		for _, r := range n.routers {
			r.SetTracer(nil)
		}
		return
	}
	n.tracer = o.Tracer
	for _, r := range n.routers {
		r.SetTracer(o.Tracer)
	}
	reg := o.Registry
	n.cFlitInjected = reg.Counter("net.flits_injected")
	n.cFlitEjected = reg.Counter("net.flits_ejected")
	n.cPktSent = reg.Counter("net.packets_sent")
	n.cPktArrived = reg.Counter("net.packets_arrived")
	if n.faults != nil {
		n.cFaultInjected = reg.Counter("fault.injected")
		n.cFaultDetected = reg.Counter("fault.detected")
		n.cFaultRetried = reg.Counter("fault.retried")
		n.cFaultDeadDropped = reg.Counter("fault.dead_dropped")
	}
	nodes := n.cfg.Topo.N
	n.nodeInjected = make([]int64, nodes)
	n.nodeEjected = make([]int64, nodes)
	n.prevXbar = make([]int64, nodes)
	n.prevInjected = make([]int64, nodes)
	n.prevEjected = make([]int64, nodes)
	n.prevPort = make([][]int64, nodes)
	for i := range n.prevPort {
		n.prevPort[i] = make([]int64, n.cfg.Topo.Radix)
	}
	n.lastSampleAt = n.clock.Now()
}

// Observer returns the attached observer, nil when observability is off.
func (n *Network) Observer() *obs.Observer { return n.obs }

// sample records one telemetry observation per router for the window that
// ended at cycle now.
func (n *Network) sample(now int64) {
	window := now - n.lastSampleAt
	if window <= 0 {
		window = 1
	}
	t := n.cfg.Topo
	tele := n.obs.Telemetry
	for id, r := range n.routers {
		xbar := r.FlitsRouted
		var linkFlits int64
		links := 0
		for p := 0; p < t.Radix; p++ {
			if !t.LinkAt(id, p).Connected() {
				continue
			}
			pf := r.PortFlits(p)
			linkFlits += pf - n.prevPort[id][p]
			n.prevPort[id][p] = pf
			links++
		}
		linkUtil := 0.0
		if links > 0 {
			linkUtil = float64(linkFlits) / float64(window) / float64(links)
		}
		avg, max := r.SampleVCOccupancy()
		tele.AddRouter(obs.RouterSample{
			Cycle:    now,
			Router:   id,
			XbarUtil: float64(xbar-n.prevXbar[id]) / float64(window),
			LinkUtil: linkUtil,
			BufOcc:   r.Occupancy(),
			AvgVCOcc: avg,
			MaxVCOcc: max,
			Injected: n.nodeInjected[id] - n.prevInjected[id],
			Ejected:  n.nodeEjected[id] - n.prevEjected[id],
		})
		n.prevXbar[id] = xbar
		n.prevInjected[id] = n.nodeInjected[id]
		n.prevEjected[id] = n.nodeEjected[id]
	}
	n.lastSampleAt = now
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.clock.Now() }

// RNG returns the network's private random source (used by workloads that
// want a stream tied to the network seed).
func (n *Network) RNG() *sim.RNG { return n.rng }

// Nodes returns the number of terminals.
func (n *Network) Nodes() int { return n.cfg.Topo.N }

// NewPacket allocates a packet from src to dst with the given flit count
// and kind, stamps its creation time, and prepares its routing state
// (including the intermediate node for two-phase algorithms). It reuses a
// packet handed back through Release when one is available, overwriting
// every field.
func (n *Network) NewPacket(src, dst, size int, kind router.Kind) *router.Packet {
	n.nextPacketID++
	mid := n.cfg.Routing.PickIntermediate(n.cfg.Topo, n.rng, src, dst)
	var p *router.Packet
	if k := len(n.freePkts); k > 0 {
		p = n.freePkts[k-1]
		n.freePkts = n.freePkts[:k-1]
	} else {
		p = new(router.Packet)
	}
	*p = router.Packet{
		ID:         n.nextPacketID,
		Src:        src,
		Dst:        dst,
		Size:       size,
		Kind:       kind,
		CreateTime: n.clock.Now(),
		InjectTime: -1,
		ArriveTime: -1,
		Route:      routing.NewState(mid),
	}
	p.Route.ArriveAt(src) // an intermediate equal to the source is a no-op phase
	return p
}

// Release hands a packet back for reuse by NewPacket. The caller must be
// done with it: its tail has arrived (Release is meant for the end of an
// OnReceive callback) and no reference to it survives the call. While the
// recovery NIC is armed Release does nothing, because the NIC keeps packet
// pointers for retransmission and duplicate detection past arrival.
func (n *Network) Release(p *router.Packet) {
	if n.nic != nil {
		return
	}
	n.freePkts = append(n.freePkts, p)
}

// Send queues the packet's flits at its source terminal. The packet will be
// injected into the router as buffer space allows. When the recovery NIC is
// armed it starts tracking the packet here; retransmissions re-enter below
// Send so they are not tracked twice.
func (n *Network) Send(p *router.Packet) {
	if n.nic != nil {
		n.nic.Track(n.clock.Now(), p)
	}
	n.send(p)
}

func (n *Network) send(p *router.Packet) {
	if n.OnSend != nil {
		n.OnSend(n.clock.Now(), p)
	}
	n.pktsSent++
	n.cPktSent.Inc()
	if n.faults != nil && n.routers[p.Src].Dead() {
		// The terminal died with its router: the packet is lost before it
		// can queue. The NIC (if any) still tracks it, so the loss is
		// eventually reported through timeout and abandonment.
		n.notePacketDead(p)
		return
	}
	q := n.srcQ[p.Src][n.clampClass(p.Class)]
	for i := 0; i < p.Size; i++ {
		q.Push(router.Flit{P: p, Seq: int32(i)})
	}
	t := &n.tiles[n.tileOf[p.Src]]
	bit := p.Src - t.lo
	t.srcPending[bit>>6] |= 1 << (uint(bit) & 63)
	t.queuedFlits += int64(p.Size)
}

// clampClass maps a packet class onto the configured class range: classes
// beyond the configured count share the lowest-priority queue, so a
// workload stamping classes onto a single-class network degrades to the
// classic behaviour instead of faulting.
func (n *Network) clampClass(qc int) int {
	if qc < 0 || qc >= n.classes {
		return n.classes - 1
	}
	return qc
}

// Classes returns the network's QoS class count (1 for classic networks).
func (n *Network) Classes() int { return n.classes }

// SourceQueueLen returns the number of flits waiting at a node's source
// queues (not yet inside the network), summed across classes.
func (n *Network) SourceQueueLen(node int) int {
	l := 0
	for _, q := range n.srcQ[node] {
		l += q.Len()
	}
	return l
}

// Step advances the network one cycle. With more than one tile the cycle
// runs on the gang (shard.go); the full-scan reference mode and an
// attached tracer force the sequential loop (trace append order is
// inherently serial), which stays correct with shards because cross-tile
// credit deferral is behaviour-preserving in either loop.
func (n *Network) Step() {
	if n.gang != nil && !n.fullScan && n.tracer == nil {
		n.stepSharded()
		return
	}
	n.stepSequential()
}

// stepSequential is the single-threaded cycle: deliver, inject, compute,
// sample, tick — the reference semantics every other path must match
// bit for bit.
func (n *Network) stepSequential() {
	now := n.clock.Now()
	if n.faults != nil {
		n.faultPreStep(now)
	}
	n.deliver(now)
	n.inject(now)
	if n.fullScan {
		for _, r := range n.routers {
			r.Step(now)
		}
	} else {
		n.stepActive(now)
	}
	if n.gang != nil {
		// Routers of a sharded network defer cross-tile credits even on
		// the sequential loop (the sink is wired at construction); drain
		// them exactly where the sharded loop does.
		n.applyCrossCredits(now)
	}
	if n.obs != nil && n.obs.ShouldSample(now) {
		n.sample(now)
	}
	n.clock.Tick()
}

// stepActive runs the compute phase over the active set only, in ascending
// router-id order (identical to the full scan's visiting order), and
// deregisters routers that went idle. Routers woken during this sweep by a
// returning credit are not re-stepped this cycle if their bit lies behind
// the cursor or inside the current word snapshot; such credit-only wakeups
// are provably no-op steps (the credit is never ready before the next
// cycle), so the resulting state matches the full scan exactly.
func (n *Network) stepActive(now int64) {
	for ti := range n.tiles {
		n.stepTile(now, ti)
	}
}

// stepTile is stepActive restricted to one tile. On the sharded path each
// gang member runs its own tile; tiles share no mutable state here —
// cross-tile credits go through the routers' credit sink into the tile's
// outbox.
func (n *Network) stepTile(now int64, ti int) {
	t := &n.tiles[ti]
	for w := range t.active {
		word := t.active[w]
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &= word - 1
			r := n.routers[t.lo+w<<6+i]
			r.Step(now)
			if r.Idle() {
				t.active[w] &^= 1 << uint(i)
				t.activeCount--
				r.ClearAwake()
			}
		}
	}
}

// deliver moves flits that completed a router/link pipeline into the next
// input buffer, and hands fully arrived packets to the receiver. The
// active-set path visits only routers with pipeline flits, and within a
// router only the ports whose pipelines are nonempty; routers receiving
// flits during the sweep gain buffered occupancy only, which deliver
// skips in both paths, so the visiting order is equivalent.
func (n *Network) deliver(now int64) {
	if n.fullScan {
		t := n.cfg.Topo
		for id, r := range n.routers {
			if r.InFlight() == 0 {
				continue
			}
			for p := 0; p < t.Ports(); p++ {
				if f, ok := r.PopDelivery(now, p); ok {
					n.handleDelivered(now, id, p, f)
				}
			}
		}
		return
	}
	for ti := range n.tiles {
		n.deliverTile(now, ti)
	}
}

// deliverTile is the active-set deliver phase restricted to one tile,
// delivering directly (serial semantics). The sharded loop uses
// deliverTileBuffered (shard.go) instead, which diverts cross-tile
// effects into outboxes.
func (n *Network) deliverTile(now int64, ti int) {
	t := &n.tiles[ti]
	for w := range t.active {
		word := t.active[w]
		for word != 0 {
			id := t.lo + w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := n.routers[id]
			for m := r.PipeMask(); m != 0; m &= m - 1 {
				p := bits.TrailingZeros64(m)
				if f, ok := r.PopDelivery(now, p); ok {
					n.handleDelivered(now, id, p, f)
				}
			}
		}
	}
}

// handleDelivered routes one flit emerging from router id's output port p:
// ejection to the terminal (with arrival bookkeeping) or link traversal
// into the downstream router's input buffer.
func (n *Network) handleDelivered(now int64, id, p int, f router.Flit) {
	t := n.cfg.Topo
	if p == t.LocalPort() {
		n.ejectFlit(now, id, f)
		return
	}
	if n.faults != nil && n.faultOnLinkDelivery(now, id, p, f, t.LinkAt(id, p)) {
		return
	}
	d := &n.down[id*t.Radix+p]
	d.r.AcceptFlit(d.port, int(f.VC), f)
}

// ejectFlit performs the terminal-arrival bookkeeping for one flit leaving
// router id's local port. It mutates only global (serial-phase) state, so
// the sharded loop calls it exclusively from the serial apply section, in
// the same ascending-id order the sequential deliver sweep would.
func (n *Network) ejectFlit(now int64, id int, f router.Flit) {
	n.flitsEjected++
	if n.obs != nil {
		n.nodeEjected[id]++
		n.cFlitEjected.Inc()
	}
	if f.Tail() {
		if n.faults != nil && !n.acceptAtDest(now, f.P) {
			return
		}
		f.P.ArriveTime = now
		n.pktsArrived++
		n.cPktArrived.Inc()
		if n.tracer != nil {
			n.tracer.Record(now, f.P.ID, id, obs.PhaseEject)
		}
		if n.OnReceive != nil {
			n.OnReceive(now, f.P)
		}
	}
}

// inject moves flits from source queues into injection buffers while space
// remains. The active-set path visits only nodes with queued flits.
func (n *Network) inject(now int64) {
	if n.fullScan {
		for node := range n.srcQ {
			n.injectNode(now, &n.tiles[n.tileOf[node]], node)
		}
		return
	}
	for ti := range n.tiles {
		n.injectTile(now, ti)
	}
}

// injectTile runs the inject phase over one tile's pending nodes. On the
// sharded path each gang member injects its own tile: a node's router and
// source queue belong to exactly one tile, and the per-node observability
// counters touch disjoint slice elements.
func (n *Network) injectTile(now int64, ti int) {
	t := &n.tiles[ti]
	for w := range t.srcPending {
		word := t.srcPending[w]
		for word != 0 {
			node := t.lo + w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			n.injectNode(now, t, node)
		}
	}
}

// injectNode drains node's source queues into its injection buffers while
// space remains, visiting classes in priority order (class 0 first), and
// clears the node's pending bit once every queue empties. Each class
// injects through its own VC partition, so the drains are independent: a
// full low-priority injection buffer never stalls high-priority flits.
// t must be node's tile.
func (n *Network) injectNode(now int64, t *netTile, node int) {
	r := n.routers[node]
	pending := 0
	for qc := 0; qc < n.classes; qc++ {
		q := n.srcQ[node][qc]
		for q.Len() > 0 && r.CanAcceptInjectionClass(qc) {
			f, _ := q.Pop()
			if f.Head() {
				f.P.InjectTime = now
				if n.tracer != nil {
					n.tracer.Record(now, f.P.ID, node, obs.PhaseInject)
				}
			}
			r.AcceptFlit(n.cfg.Topo.LocalPort(), r.InjectionVCClass(qc), f)
			t.flitsInjected++
			t.queuedFlits--
			if n.obs != nil {
				n.nodeInjected[node]++
				n.cFlitInjected.Inc()
			}
		}
		pending += q.Len()
	}
	if pending == 0 {
		bit := node - t.lo
		t.srcPending[bit>>6] &^= 1 << (uint(bit) & 63)
	}
}

// Quiescent reports whether no flits remain anywhere: source queues,
// input buffers, and pipelines are all empty. With activity tracking it
// is an O(tiles) counter check; the active set is exact between Steps
// (every Step's compute sweep deregisters routers that went idle that
// cycle), and cross-tile outboxes drain within each Step, so quiescence of
// the tiles is quiescence of the network regardless of shard count.
func (n *Network) Quiescent() bool {
	for i := range n.tiles {
		if n.tiles[i].queuedFlits != 0 {
			return false
		}
	}
	if !n.fullScan {
		for i := range n.tiles {
			if n.tiles[i].activeCount != 0 {
				return false
			}
		}
		return true
	}
	for _, r := range n.routers {
		if !r.Idle() {
			return false
		}
	}
	return true
}

// ActiveCount returns the number of routers currently in the active set —
// an instantaneous load signal for telemetry and for sizing the benefit of
// activity-tracked stepping. Meaningless (always 0) in full-scan mode.
func (n *Network) ActiveCount() int {
	c := 0
	for i := range n.tiles {
		c += n.tiles[i].activeCount
	}
	return c
}

// SkipTo advances the clock to the given cycle without simulating the
// intervening cycles. The network must be quiescent, and callers (the
// engine's fast-forward) must not skip past an observer sampling point —
// the engine wakes at NextObsSampleAt so sampled telemetry records the
// same cycles either way.
func (n *Network) SkipTo(cycle int64) {
	if !n.Quiescent() {
		panic("network: SkipTo on a non-quiescent network")
	}
	n.clock.AdvanceTo(cycle)
}

// NextObsSampleAt returns the next telemetry sampling cycle, or -1 when
// no observer is attached or sampling is off.
func (n *Network) NextObsSampleAt() int64 { return n.obs.NextSampleAt() }

// Stats returns the network's cumulative conservation counters.
func (n *Network) Stats() (pktsSent, pktsArrived, flitsInjected, flitsEjected int64) {
	return n.pktsSent, n.pktsArrived, n.flitsInjectedTotal(), n.flitsEjected
}

// flitsInjectedTotal sums the per-tile injection counters.
func (n *Network) flitsInjectedTotal() int64 {
	var s int64
	for i := range n.tiles {
		s += n.tiles[i].flitsInjected
	}
	return s
}

// CheckConservation returns an error when flit/packet accounting is
// inconsistent with the amount of traffic still in flight; tests call it
// after draining to prove nothing was lost or duplicated. Fault injection
// extends both equations: every injected flit is ejected, dead-dropped, or
// still inside, and every sent packet ends arrived, dead, discarded, or
// deduplicated.
func (n *Network) CheckConservation() error {
	inside := int64(0)
	for _, r := range n.routers {
		inside += int64(r.Occupancy() + r.InFlight())
	}
	injected := n.flitsInjectedTotal()
	if injected-n.flitsEjected-n.flitsDeadDropped != inside {
		return fmt.Errorf("network: flit conservation violated: injected %d, ejected %d, dead-dropped %d, inside %d",
			injected, n.flitsEjected, n.flitsDeadDropped, inside)
	}
	if n.Quiescent() {
		if got := n.pktsArrived + n.pktsDead + n.pktsDiscarded + n.pktsDup; n.pktsSent != got {
			return fmt.Errorf("network: packet conservation violated at quiescence: sent %d != arrived %d + dead %d + discarded %d + dup %d",
				n.pktsSent, n.pktsArrived, n.pktsDead, n.pktsDiscarded, n.pktsDup)
		}
	}
	return nil
}

// ChannelLoad describes the traffic carried by one network channel.
type ChannelLoad struct {
	From, Port, To int
	Flits          int64
	// Utilization is flits divided by elapsed cycles: the fraction of the
	// channel's bandwidth in use.
	Utilization float64
}

// ChannelLoads returns the per-channel flit counts and utilizations since
// construction, most-loaded first. It identifies the saturated channel
// that bounds throughput (the paper's footnote: "the saturation throughput
// is determined when one channel in the network is saturated").
func (n *Network) ChannelLoads() []ChannelLoad {
	t := n.cfg.Topo
	cycles := n.clock.Now()
	var out []ChannelLoad
	for id, r := range n.routers {
		for p := 0; p < t.Radix; p++ {
			link := t.LinkAt(id, p)
			if !link.Connected() {
				continue
			}
			cl := ChannelLoad{From: id, Port: p, To: link.To, Flits: r.PortFlits(p)}
			if cycles > 0 {
				cl.Utilization = float64(cl.Flits) / float64(cycles)
			}
			out = append(out, cl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flits > out[j].Flits })
	return out
}

// MaxChannelUtilization returns the utilization of the busiest channel.
func (n *Network) MaxChannelUtilization() float64 {
	loads := n.ChannelLoads()
	if len(loads) == 0 {
		return 0
	}
	return loads[0].Utilization
}

// --- Fault injection ------------------------------------------------------

// faultPreStep applies due outage edges and router kills, then fires the
// NIC's due timeouts, all before the deliver phase so a retransmission
// issued this cycle can inject this cycle like any other send. Called only
// when fault injection is enabled.
func (n *Network) faultPreStep(now int64) {
	if n.faults.ScheduleDue(now) {
		n.applyFaultSchedule(now)
	}
	if n.nic != nil {
		n.nic.Tick(now)
	}
}

// applyFaultSchedule brings the outage and kill state in line with cycle
// now. The schedule is evaluated from time predicates rather than stepped,
// so it stays exact when the engine fast-forwards the clock across
// boundaries: transitions on an idle network have no observable effect, and
// the state seen at the next real cycle is identical either way.
func (n *Network) applyFaultSchedule(now int64) {
	p := n.faults.Params()
	for _, o := range p.Outages {
		r := n.routers[o.Node]
		down := fault.OutageActive(o, now)
		if r.LinkIsDown(o.Port) != down {
			r.SetLinkDown(o.Port, down)
		}
	}
	for _, k := range p.Kills {
		if now >= k.At && !n.routers[k.Node].Dead() {
			n.killRouter(now, k.Node)
		}
	}
	n.faults.AdvanceSchedule(now)
}

// killRouter hard-fails one router: its flits are purged (counted as
// dead-dropped, their packets marked dead) and its terminal's source queue
// is emptied — packets that never injected die without flit accounting.
func (n *Network) killRouter(now int64, node int) {
	r := n.routers[node]
	r.Kill(now, func(f router.Flit) {
		n.flitsDeadDropped++
		n.cFaultDeadDropped.Inc()
		n.notePacketDead(f.P)
	})
	t := &n.tiles[n.tileOf[node]]
	for _, q := range n.srcQ[node] {
		for {
			f, ok := q.Pop()
			if !ok {
				break
			}
			t.queuedFlits--
			n.notePacketDead(f.P)
		}
	}
	bit := node - t.lo
	t.srcPending[bit>>6] &^= 1 << (uint(bit) & 63)
}

// notePacketDead marks a packet lost inside the network, counting it once
// even when several of its flits are discarded separately.
func (n *Network) notePacketDead(p *router.Packet) {
	if p.FaultDead {
		return
	}
	p.FaultDead = true
	n.pktsDead++
}

// faultOnLinkDelivery intercepts one flit emerging from router id's output
// port p toward link.To. It reports true when the flit was consumed by a
// fault (discarded); false lets normal delivery proceed. Discarded flits
// bounce their credit straight back to the sender — the checksum logic at
// the link receiver rejects the flit without buffering it, so the slot it
// would have used is immediately free.
func (n *Network) faultOnLinkDelivery(now int64, id, p int, f router.Flit, link topology.Link) bool {
	if f.P.FaultDead {
		// Trailing flit of a packet that already died: the wormhole drains
		// here, keeping downstream state consistent.
		n.discardFlit(now, id, p, f)
		return true
	}
	if n.routers[link.To].Dead() {
		n.notePacketDead(f.P)
		n.discardFlit(now, id, p, f)
		return true
	}
	if f.Head() && n.faults.DrawDrop() {
		n.cFaultInjected.Inc()
		n.notePacketDead(f.P)
		n.discardFlit(now, id, p, f)
		return true
	}
	if n.faults.DrawCorrupt() {
		n.cFaultInjected.Inc()
		f.P.FaultCorrupt = true
	}
	return false
}

// discardFlit accounts one fault-discarded flit and bounces its credit to
// the sending router.
func (n *Network) discardFlit(now int64, id, p int, f router.Flit) {
	n.flitsDeadDropped++
	n.cFaultDeadDropped.Inc()
	n.routers[id].ReturnCredit(now, p, int(f.VC))
}

// acceptAtDest applies destination-side fault handling to a fully arrived
// packet: checksum rejection of corrupt payloads and NIC deduplication of
// redundant retransmissions. It reports true when the packet is accepted as
// a genuine arrival.
func (n *Network) acceptAtDest(now int64, p *router.Packet) bool {
	if p.FaultDead {
		return false // already accounted when it died
	}
	if p.FaultCorrupt {
		// The per-flit checksums fail: the destination discards the packet.
		// Recovery, if any, is by source timeout — there is no NACK.
		n.pktsDiscarded++
		n.cFaultDetected.Inc()
		return false
	}
	if n.nic != nil && !n.nic.AckOrDup(now, p) {
		n.pktsDup++
		return false
	}
	return true
}

// NextInternalEventAt returns the next cycle at which the network itself
// has scheduled work even while empty — a pending NIC timeout — or -1. The
// engine folds it into its fast-forward wake-up and its stall detection.
func (n *Network) NextInternalEventAt() int64 {
	if n.nic == nil {
		return -1
	}
	return n.nic.NextDeadline()
}

// FaultStats assembles the run's fault and recovery counters, or nil when
// fault injection is disabled. DeliveredFraction and P99Inflation are left
// for the run mode / sweep to fill.
func (n *Network) FaultStats() *fault.Stats {
	if n.faults == nil {
		return nil
	}
	s := &fault.Stats{
		Detected:          n.pktsDiscarded,
		DeadFlits:         n.flitsDeadDropped,
		DeadPackets:       n.pktsDead,
		Duplicates:        n.pktsDup,
		DeliveredFraction: 1,
	}
	s.CorruptInjected, s.DropInjected = n.faults.Injected()
	if n.nic != nil {
		s.Tracked, s.Acked, s.Retried, s.Abandoned, _ = n.nic.Counters()
		s.Outstanding = n.nic.Outstanding()
	}
	return s
}

// NIC exposes the recovery NIC (nil when disabled) for the invariant
// harness and its mutation test.
func (n *Network) NIC() *fault.NIC { return n.nic }

// Router returns router id, for invariant checking and tests.
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// StuckVCReport renders a human-readable dump of every router still holding
// flits, credits, or VC grants — the deadlock watchdog attaches it to
// stall failures so wedged runs are diagnosable from the report alone.
func (n *Network) StuckVCReport() string {
	var b strings.Builder
	const maxLines = 64
	lines := 0
	for id, r := range n.routers {
		stuck := r.StuckVCs()
		// Dead routers are always listed: after a kill purge they hold
		// nothing, but they are usually why everyone else is stuck.
		if len(stuck) == 0 && r.InFlight() == 0 && r.PendingCredits() == 0 && !r.Dead() {
			continue
		}
		if lines >= maxLines {
			fmt.Fprintf(&b, "... (further routers omitted)\n")
			break
		}
		state := ""
		if r.Dead() {
			state = " DEAD"
		}
		fmt.Fprintf(&b, "router %d%s: occ %d inflight %d pendingCredits %d\n",
			id, state, r.Occupancy(), r.InFlight(), r.PendingCredits())
		lines++
		for _, s := range stuck {
			if lines >= maxLines {
				break
			}
			fmt.Fprintf(&b, "  in(port %d, vc %d): %d flits, pkt %d", s.Port, s.VC, s.Buffered, s.PacketID)
			if s.Granted {
				fmt.Fprintf(&b, " -> granted out(port %d, vc %d) credits %d", s.OutPort, s.OutVC, s.OutCredits)
			}
			b.WriteString("\n")
			lines++
		}
	}
	if b.Len() == 0 {
		return "no stuck VCs: network is empty\n"
	}
	return b.String()
}

// RunUntilQuiescent steps until the network drains or maxCycles elapse,
// returning the number of cycles stepped and whether it drained.
func (n *Network) RunUntilQuiescent(maxCycles int64) (int64, bool) {
	start := n.clock.Now()
	for !n.Quiescent() {
		if n.clock.Now()-start >= maxCycles {
			return n.clock.Now() - start, false
		}
		n.Step()
	}
	return n.clock.Now() - start, true
}
