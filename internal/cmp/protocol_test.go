package cmp

import (
	"testing"

	"noceval/internal/network"
	"noceval/internal/router"
)

// stubFabric records sent packets for manual, test-controlled delivery.
type stubFabric struct {
	now    int64
	nextID uint64
	sent   []*router.Packet
	recv   network.Receiver
}

func (f *stubFabric) NewPacket(src, dst, size int, kind router.Kind) *router.Packet {
	f.nextID++
	return &router.Packet{ID: f.nextID, Src: src, Dst: dst, Size: size, Kind: kind, CreateTime: f.now}
}
func (f *stubFabric) Send(p *router.Packet)            { f.sent = append(f.sent, p) }
func (f *stubFabric) Step()                            { f.now++ }
func (f *stubFabric) Now() int64                       { return f.now }
func (f *stubFabric) Quiescent() bool                  { return len(f.sent) == 0 }
func (f *stubFabric) SetOnReceive(fn network.Receiver) { f.recv = fn }
func (f *stubFabric) Release(*router.Packet)           {}

// take removes and returns all packets sent so far.
func (f *stubFabric) take() []*router.Packet {
	out := f.sent
	f.sent = nil
	return out
}

// deliver hands one packet to the system.
func (f *stubFabric) deliver(p *router.Packet) { f.recv(f.now, p) }

// idlePrograms build OpDone-only programs.
type idleProgram struct{}

func (idleProgram) NextUser() Op   { return Op{Kind: OpDone} }
func (idleProgram) NextKernel() Op { return Op{Kind: OpCompute, N: 1} }

func protoSystem(t *testing.T) (*System, *stubFabric) {
	t.Helper()
	fab := &stubFabric{}
	cfg := DefaultConfig()
	cfg.Tiles = 4
	progs := make([]Program, 4)
	for i := range progs {
		progs[i] = idleProgram{}
	}
	sys, err := NewSystem(cfg, fab, progs)
	if err != nil {
		t.Fatal(err)
	}
	return sys, fab
}

// find returns the first sent packet whose decoded type matches.
func find(t *testing.T, pkts []*router.Packet, mt MsgType) *router.Packet {
	t.Helper()
	for _, p := range pkts {
		if decodeMsg(p.Aux).Type == mt {
			return p
		}
	}
	t.Fatalf("no %s among %d packets", mt, len(pkts))
	return nil
}

// drainEvents completes all scheduled home accesses immediately.
func drainEvents(s *System) {
	for s.events.Len() > 0 {
		_, ev := s.events.Pop()
		s.homes[ev.tile].dataArrived(ev.line)
	}
}

// line 8 homes at tile 0 in a 4-tile system.
const testLine = uint64(8)

func TestGetSOnUncachedLine(t *testing.T) {
	sys, fab := protoSystem(t)
	h := sys.homes[0]
	h.handle(Msg{Type: MsgGetS, Line: testLine, Node: 2}, 2)
	// Data comes from memory (cold): an event is scheduled, no grant yet.
	if len(fab.take()) != 0 {
		t.Fatal("grant sent before data ready")
	}
	drainEvents(sys)
	grant := find(t, fab.take(), MsgData)
	m := decodeMsg(grant.Aux)
	if grant.Dst != 2 || m.GrantM || grant.Size != DataFlits {
		t.Errorf("bad grant: dst=%d grantM=%v size=%d", grant.Dst, m.GrantM, grant.Size)
	}
	e := h.entry(testLine)
	if e.state != dShared || e.sharers != 1<<2 || e.busy {
		t.Errorf("dir state after GetS: %+v", e)
	}
}

func TestGetSToModifiedLineDowngradesOwner(t *testing.T) {
	sys, fab := protoSystem(t)
	h := sys.homes[0]
	e := h.entry(testLine)
	e.state, e.owner, e.sharers = dModified, 1, 1<<1
	sys.tileArr[1].l1.Insert(testLine, Modified)

	h.handle(Msg{Type: MsgGetS, Line: testLine, Node: 3}, 3)
	dng := find(t, fab.take(), MsgDowngrade)
	if dng.Dst != 1 {
		t.Fatalf("downgrade sent to %d, want owner 1", dng.Dst)
	}
	// Owner's L1 responds with WBData and keeps... the conservative
	// implementation invalidates; either way home must complete.
	sys.tileArr[1].handle(decodeMsg(dng.Aux), 0)
	wb := find(t, fab.take(), MsgWBData)
	h.handle(decodeMsg(wb.Aux), wb.Src)
	grant := find(t, fab.take(), MsgData)
	if grant.Dst != 3 || decodeMsg(grant.Aux).GrantM {
		t.Errorf("bad GetS grant after downgrade: %+v", decodeMsg(grant.Aux))
	}
	if e.state != dShared || e.sharers&(1<<3) == 0 {
		t.Errorf("dir not shared with requester: %+v", e)
	}
}

func TestGetMInvalidatesSharers(t *testing.T) {
	sys, fab := protoSystem(t)
	h := sys.homes[0]
	h.l2.Insert(testLine, Shared) // data present
	e := h.entry(testLine)
	e.state = dShared
	e.sharers = 1<<1 | 1<<2 | 1<<3

	h.handle(Msg{Type: MsgGetM, Line: testLine, Node: 3}, 3)
	drainEvents(sys) // data ready
	pkts := fab.take()
	invs := 0
	for _, p := range pkts {
		if decodeMsg(p.Aux).Type == MsgInv {
			invs++
			if p.Dst == 3 {
				t.Error("requester invalidated")
			}
		}
	}
	if invs != 2 {
		t.Fatalf("sent %d invalidations, want 2", invs)
	}
	if !e.busy {
		t.Fatal("transaction completed before acks")
	}
	// Acks from the two sharers complete the transaction.
	h.handle(Msg{Type: MsgInvAck, Line: testLine, Node: 3}, 1)
	h.handle(Msg{Type: MsgInvAck, Line: testLine, Node: 3}, 2)
	grant := find(t, fab.take(), MsgData)
	if !decodeMsg(grant.Aux).GrantM || grant.Dst != 3 {
		t.Errorf("bad GetM grant: %+v", decodeMsg(grant.Aux))
	}
	if e.state != dModified || e.owner != 3 {
		t.Errorf("dir not modified by requester: %+v", e)
	}
}

func TestWritebackRetiresOwnership(t *testing.T) {
	sys, fab := protoSystem(t)
	h := sys.homes[0]
	e := h.entry(testLine)
	e.state, e.owner = dModified, 2
	h.handle(Msg{Type: MsgWriteback, Line: testLine, Node: 2}, 2)
	if e.state != dInvalid || e.owner != -1 {
		t.Errorf("writeback did not retire ownership: %+v", e)
	}
	if h.l2.Probe(testLine) == Invalid {
		t.Error("writeback data not installed in L2")
	}
	// A later GetS hits the L2.
	h.handle(Msg{Type: MsgGetS, Line: testLine, Node: 1}, 1)
	drainEvents(sys)
	find(t, fab.take(), MsgData)
	if h.l2Miss[0] != 0 {
		t.Errorf("GetS after writeback missed L2 (%d misses)", h.l2Miss[0])
	}
}

func TestStaleWritebackDropped(t *testing.T) {
	sys, fab := protoSystem(t)
	h := sys.homes[0]
	e := h.entry(testLine)
	e.state, e.owner = dModified, 2
	// Owner evicted (writeback in flight) and immediately re-requests.
	h.handle(Msg{Type: MsgGetM, Line: testLine, Node: 2}, 2)
	drainEvents(sys)
	grant := find(t, fab.take(), MsgData)
	if !decodeMsg(grant.Aux).GrantM {
		t.Fatal("re-request not granted M")
	}
	if e.state != dModified || e.owner != 2 {
		t.Fatalf("dir after re-grant: %+v", e)
	}
	// The in-flight writeback now arrives and must NOT clobber the fresh
	// ownership.
	h.handle(Msg{Type: MsgWriteback, Line: testLine, Node: 2}, 2)
	if e.state != dModified || e.owner != 2 {
		t.Errorf("stale writeback clobbered ownership: %+v", e)
	}
	_ = sys
}

func TestDeferredRequestsServedInOrder(t *testing.T) {
	sys, fab := protoSystem(t)
	h := sys.homes[0]
	h.handle(Msg{Type: MsgGetS, Line: testLine, Node: 1}, 1)
	// Two more requests arrive while the first is fetching from memory.
	h.handle(Msg{Type: MsgGetS, Line: testLine, Node: 2}, 2)
	h.handle(Msg{Type: MsgGetM, Line: testLine, Node: 3}, 3)
	e := h.entry(testLine)
	if len(e.deferred) != 2 {
		t.Fatalf("deferred = %d, want 2", len(e.deferred))
	}
	drainEvents(sys) // completes 1, starts 2 (hits L2 now), then 3
	drainEvents(sys)
	pkts := fab.take()
	var grants []*router.Packet
	for _, p := range pkts {
		if decodeMsg(p.Aux).Type == MsgData {
			grants = append(grants, p)
		}
	}
	if len(grants) < 2 {
		t.Fatalf("grants = %d, want >= 2", len(grants))
	}
	if grants[0].Dst != 1 || grants[1].Dst != 2 {
		t.Errorf("grant order = %d, %d; want 1, 2", grants[0].Dst, grants[1].Dst)
	}
}

func TestEvictedOwnerAckTriggersL2Fallback(t *testing.T) {
	sys, fab := protoSystem(t)
	h := sys.homes[0]
	h.l2.Insert(testLine, Shared)
	e := h.entry(testLine)
	e.state, e.owner = dModified, 1

	h.handle(Msg{Type: MsgGetS, Line: testLine, Node: 2}, 2)
	find(t, fab.take(), MsgDowngrade)
	// Owner already evicted the line: replies InvAck without data.
	h.handle(Msg{Type: MsgInvAck, Line: testLine, Node: 2}, 1)
	if sys.events.Len() == 0 {
		t.Fatal("no L2 fallback scheduled")
	}
	drainEvents(sys)
	find(t, fab.take(), MsgData)
}

func TestTileProbeResponses(t *testing.T) {
	sys, fab := protoSystem(t)
	tile := sys.tileArr[2]

	// Modified line: Inv yields WBData and invalidates.
	tile.l1.Insert(testLine, Modified)
	tile.handle(Msg{Type: MsgInv, Line: testLine, Node: 3}, 0)
	if find(t, fab.take(), MsgWBData).Dst != 0 {
		t.Error("WBData not sent to home")
	}
	if tile.l1.Probe(testLine) != Invalid {
		t.Error("M line not invalidated")
	}

	// Shared line: Inv yields InvAck.
	tile.l1.Insert(testLine, Shared)
	tile.handle(Msg{Type: MsgInv, Line: testLine, Node: 3}, 0)
	find(t, fab.take(), MsgInvAck)
	if tile.l1.Probe(testLine) != Invalid {
		t.Error("S line not invalidated")
	}

	// Absent line: still acks (silent eviction already happened).
	tile.handle(Msg{Type: MsgInv, Line: testLine, Node: 3}, 0)
	find(t, fab.take(), MsgInvAck)

	// Downgrade on a Shared line keeps the S copy.
	tile.l1.Insert(testLine, Shared)
	tile.handle(Msg{Type: MsgDowngrade, Line: testLine, Node: 3}, 0)
	find(t, fab.take(), MsgInvAck)
	if tile.l1.Probe(testLine) != Shared {
		t.Error("downgrade of S line dropped it")
	}
}

func TestRacingInvalidationDropsGrant(t *testing.T) {
	sys, fab := protoSystem(t)
	tile := sys.tileArr[2]
	// Pending load transaction for the line, core stalled on its value.
	txn := &pendingTxn{line: testLine}
	tile.loadTxns[testLine] = txn
	tile.state = coreBlockedLoad
	tile.blockedLine = testLine
	tile.curOp = Op{Kind: OpLoad, Addr: testLine << 6}

	// Inv overtakes the grant.
	tile.handle(Msg{Type: MsgInv, Line: testLine, Node: 3}, 0)
	find(t, fab.take(), MsgInvAck)
	if !txn.dropped {
		t.Fatal("pending transaction not marked dropped")
	}
	// The grant arrives: the load completes but the line is not installed.
	tile.handle(Msg{Type: MsgData, Line: testLine, Node: 2, GrantM: true}, 0)
	if tile.l1.Probe(testLine) != Invalid {
		t.Error("dropped grant was installed")
	}
	if len(tile.loadTxns) != 0 {
		t.Error("load transaction not retired")
	}
	if tile.state == coreBlockedLoad {
		t.Error("core still blocked")
	}
}

func TestMsgEncodingRoundTrip(t *testing.T) {
	for _, m := range []Msg{
		{Type: MsgGetS, Line: 0x123456789a, Node: 15},
		{Type: MsgData, Line: 7, Node: 3, GrantM: true},
		{Type: MsgInv, Line: 1 << 40, Node: 63, Kernel: true},
		{Type: MsgWriteback, Line: 0, Node: 0},
	} {
		got := decodeMsg(m.encode())
		if got != m {
			t.Errorf("round trip: %+v -> %+v", m, got)
		}
	}
}

func TestMsgSizesAndKinds(t *testing.T) {
	if MsgGetS.size() != CtrlFlits || MsgData.size() != DataFlits || MsgWriteback.size() != DataFlits {
		t.Error("message sizes wrong")
	}
	if MsgGetS.kind() != router.KindRequest || MsgData.kind() != router.KindReply || MsgInv.kind() != router.KindCoherence {
		t.Error("message kinds wrong")
	}
}
