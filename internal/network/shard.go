// Sharded cycle loop: the network is partitioned into contiguous spatial
// tiles (topology.Partition), each owned by one member of a resident
// worker gang, and every cycle is stepped as a fixed phase schedule with
// barriers at the phase boundaries:
//
//	deliver (parallel, cross-tile effects buffered)
//	  barrier
//	apply ejections + cross-tile flits (serial, member 0)
//	  barrier
//	inject + compute (parallel)
//	apply cross-tile credits (serial, caller)
//
// The schedule is sound by conservative lookahead: every cross-tile link
// carries at least one cycle of delay (wireShards asserts it), so a flit
// forwarded by tile A in cycle c cannot influence tile B before cycle
// c+1 — buffering it across the barrier and landing it before the next
// cycle's compute phase reproduces the sequential semantics exactly.
// Credits travel on pipes of delay >= 2 and are provably unusable in the
// cycle they are issued, so they are applied even later (after compute)
// without observable difference; see ejectFlit and DESIGN §12 for the
// ordering arguments that make the serial apply sections bit-identical to
// the sequential sweep.
package network

import (
	"fmt"
	"math/bits"

	"noceval/internal/obs"
	"noceval/internal/par"
	"noceval/internal/router"
	"noceval/internal/topology"
)

// wireShards converts a freshly built multi-tile network to the sharded
// cycle loop: cross-tile input ports are marked so their credit returns
// divert into the forwarding tile's outbox, and the worker gang is
// started. Called from New only when the partition produced >1 tile.
func (n *Network) wireShards(parts []topology.Tile) {
	t := n.cfg.Topo
	if d := t.MinCrossDelay(parts); d < 1 {
		panic(fmt.Sprintf("network: cross-tile link with delay %d; sharding needs >= 1 cycle of lookahead", d))
	}
	for i := 0; i < t.N; i++ {
		for p := 0; p < t.Radix; p++ {
			link := t.LinkAt(i, p)
			if link.Connected() && n.tileOf[link.To] != n.tileOf[i] {
				n.routers[link.To].SetUpstreamCross(link.ToPort)
			}
		}
	}
	for ti := range n.tiles {
		tile := &n.tiles[ti]
		sink := func(up *router.Router, port, vc int) {
			tile.creditOut = append(tile.creditOut, crossCredit{up: up, port: port, vc: vc})
		}
		for id := tile.lo; id < tile.hi; id++ {
			n.routers[id].SetCreditSink(sink)
		}
	}
	n.gang = par.NewGang(len(n.tiles))
	obs.Default().Gauge("shard.count").Set(float64(len(n.tiles)))
}

// stepSharded advances one cycle on the gang. Fault injection draws from
// the shared RNG during the deliver phase, so faulted networks keep the
// pre-step and deliver phases serial (preserving draw order) and
// parallelize only inject+compute; fault-free networks run the full
// buffered schedule.
func (n *Network) stepSharded() {
	now := n.clock.Now()
	if n.faults != nil {
		n.faultPreStep(now)
		n.deliver(now)
		n.gang.Run(func(ti int) {
			n.injectTile(now, ti)
			n.stepTile(now, ti)
		})
	} else {
		n.gang.Run(func(ti int) {
			n.deliverTileBuffered(now, ti)
			n.gang.Barrier()
			if ti == 0 {
				n.applyCrossDeliveries(now)
			}
			n.gang.Barrier()
			n.injectTile(now, ti)
			n.stepTile(now, ti)
		})
	}
	n.applyCrossCredits(now)
	if n.obs != nil && n.obs.ShouldSample(now) {
		n.sample(now)
	}
	n.clock.Tick()
}

// deliverTileBuffered is the parallel deliver phase for one tile: flits
// completing a pipeline are moved directly when the receiver is inside
// the tile, while terminal ejections (which mutate global accounting and
// may invoke OnReceive) and flits bound for another tile are appended to
// the tile's outboxes in ascending-router-id order for the serial apply
// section.
func (n *Network) deliverTileBuffered(now int64, ti int) {
	t := &n.tiles[ti]
	topo := n.cfg.Topo
	local := topo.LocalPort()
	for w := range t.active {
		word := t.active[w]
		for word != 0 {
			id := t.lo + w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			r := n.routers[id]
			for m := r.PipeMask(); m != 0; m &= m - 1 {
				p := bits.TrailingZeros64(m)
				f, ok := r.PopDelivery(now, p)
				if !ok {
					continue
				}
				if p == local {
					t.ejectOut = append(t.ejectOut, ejectedFlit{id: id, f: f})
					continue
				}
				d := &n.down[id*topo.Radix+p]
				if n.tileOf[d.to] != int32(ti) {
					t.flitOut = append(t.flitOut, crossFlit{to: d.to, toPort: d.port, f: f})
					continue
				}
				d.r.AcceptFlit(d.port, int(f.VC), f)
			}
		}
	}
}

// applyCrossDeliveries drains every tile's deliver-phase outboxes on one
// goroutine. Ejections go first, in tile order: tiles are ascending id
// ranges and each outbox was filled in ascending id order, so OnReceive
// callbacks (and any RNG draws they make through NewPacket) fire in
// exactly the sequential sweep's order. At most one flit pops per
// (router, input port) per cycle, so the cross-tile AcceptFlits touch
// disjoint buffer slots and commute with the ejections.
func (n *Network) applyCrossDeliveries(now int64) {
	for ti := range n.tiles {
		t := &n.tiles[ti]
		for _, e := range t.ejectOut {
			n.ejectFlit(now, e.id, e.f)
		}
		t.ejectOut = t.ejectOut[:0]
	}
	for ti := range n.tiles {
		t := &n.tiles[ti]
		for _, c := range t.flitOut {
			n.routers[c.to].AcceptFlit(c.toPort, int(c.f.VC), c.f)
		}
		t.flitOut = t.flitOut[:0]
	}
}

// applyCrossCredits returns the compute phase's deferred cross-tile
// credits to their upstream routers. A credit issued in cycle now rides a
// pipe of delay >= 2, so it cannot be consumed before cycle now+2 whether
// it is pushed mid-compute (sequential immediate delivery) or here after
// the compute phase — the end-of-cycle router state is identical either
// way (the upstream router ends the cycle awake with the credit pending
// in both schedules).
func (n *Network) applyCrossCredits(now int64) {
	for ti := range n.tiles {
		t := &n.tiles[ti]
		for _, c := range t.creditOut {
			c.up.ReturnCredit(now, c.port, c.vc)
		}
		t.creditOut = t.creditOut[:0]
	}
}

// Close releases the sharded network's resident workers; idempotent, and
// a no-op for a sequential network. Run modes close their network when
// they finish; an unclosed network's workers are reclaimed by the gang's
// finalizer.
func (n *Network) Close() {
	if n.gang != nil {
		n.gang.Close()
	}
}

// ShardStats reports the tile count, the number of sharded cycle waves
// dispatched, and the mean sampled load imbalance (1 = perfectly
// balanced; 0 before the first sample). A sequential network reports
// {1, 0, 0}.
func (n *Network) ShardStats() (shards int, waves int64, imbalance float64) {
	if n.gang == nil {
		return 1, 0, 0
	}
	waves, imbalance = n.gang.Stats()
	return len(n.tiles), waves, imbalance
}
