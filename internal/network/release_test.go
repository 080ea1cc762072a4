package network

import (
	"testing"

	"noceval/internal/fault"
	"noceval/internal/router"
	"noceval/internal/routing"
	"noceval/internal/topology"
)

// releaseNet builds a small Valiant-routed mesh: every NewPacket draws an
// intermediate node from the network RNG, so a recycled packet that
// perturbed the draw order would show up in its routing state.
func releaseNet(fp *fault.Params) *Network {
	return New(Config{
		Topo:    topology.NewMesh(4, 4),
		Routing: routing.Valiant{},
		Router:  router.Config{VCs: 4, BufDepth: 4, Delay: 1},
		Seed:    11,
		Fault:   fp,
	})
}

// TestReleaseResetsEveryField dirties every field of a released packet and
// requires the packet NewPacket hands out next to be the same object, yet
// field-for-field equal to the packet an identical network that never
// recycled returns for the same call.
func TestReleaseResetsEveryField(t *testing.T) {
	a, b := releaseNet(nil), releaseNet(nil)
	p := a.NewPacket(1, 14, 3, router.KindRequest)
	b.NewPacket(1, 14, 3, router.KindRequest)

	p.Aux = 0xdead
	p.InjectTime, p.ArriveTime = 17, 29
	p.Measured = true
	p.Class = 2
	p.FaultTxn, p.FaultCorrupt, p.FaultDead = 99, true, true
	p.Route = routing.State{Intermediate: 5, Phase: 1, CurDim: 1, Dateline: true, OnEscape: true}
	p.Hops = 6
	a.Release(p)

	got := a.NewPacket(7, 2, 1, router.KindReply)
	want := b.NewPacket(7, 2, 1, router.KindReply)
	if got != p {
		t.Fatal("NewPacket did not reuse the released packet")
	}
	if *got != *want {
		t.Errorf("recycled packet not fully reset:\ngot  %+v\nwant %+v", *got, *want)
	}
}

// TestReleasedPacketIDsIncrease drives traffic through a network that
// recycles every delivered packet and requires packet IDs to keep rising
// strictly, in step with a network that never recycles.
func TestReleasedPacketIDsIncrease(t *testing.T) {
	recycled, fresh := releaseNet(nil), releaseNet(nil)
	recycled.OnReceive = func(_ int64, p *router.Packet) { recycled.Release(p) }
	var last uint64
	reused := 0
	seen := map[*router.Packet]bool{}
	for c := 0; c < 400; c++ {
		src, dst := c%16, (c*7+3)%16
		p := recycled.NewPacket(src, dst, 1+c%3, router.KindData)
		q := fresh.NewPacket(src, dst, 1+c%3, router.KindData)
		if p.ID <= last {
			t.Fatalf("packet ID %d after %d: not strictly increasing", p.ID, last)
		}
		if p.ID != q.ID || p.Route != q.Route {
			t.Fatalf("cycle %d: recycled packet %+v diverges from fresh %+v", c, *p, *q)
		}
		last = p.ID
		if seen[p] {
			reused++
		}
		seen[p] = true
		recycled.Send(p)
		fresh.Send(q)
		recycled.Step()
		fresh.Step()
	}
	if reused == 0 {
		t.Fatal("no packet was ever recycled")
	}
}

// TestReleaseIgnoredWithNIC pins the ownership exemption: the recovery NIC
// keeps packet pointers for retransmission and deduplication after
// arrival, so Release must never recycle while it is armed.
func TestReleaseIgnoredWithNIC(t *testing.T) {
	n := releaseNet(&fault.Params{Timeout: 200, MaxRetries: 2})
	if n.NIC() == nil {
		t.Fatal("recovery NIC not armed")
	}
	released := map[*router.Packet]bool{}
	n.OnReceive = func(_ int64, p *router.Packet) {
		released[p] = true
		n.Release(p)
	}
	for c := 0; c < 300; c++ {
		p := n.NewPacket(c%16, (c*5+1)%16, 2, router.KindData)
		if released[p] {
			t.Fatalf("cycle %d: NewPacket recycled packet %d while the NIC is armed", c, p.ID)
		}
		n.Send(p)
		n.Step()
	}
	if len(released) == 0 {
		t.Fatal("no packet arrived")
	}
}
