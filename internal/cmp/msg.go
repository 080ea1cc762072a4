package cmp

import (
	"noceval/internal/network"
	"noceval/internal/router"
)

// MsgType enumerates the coherence protocol messages.
type MsgType uint8

// Protocol message types of the MSI directory protocol.
const (
	MsgGetS      MsgType = iota // L1 -> home: read miss
	MsgGetM                     // L1 -> home: write miss/upgrade
	MsgData                     // home -> L1: grant with data (Shared or Modified per AuxGrantM)
	MsgInv                      // home -> L1: invalidate (on another's GetM)
	MsgDowngrade                // home -> owner: M -> S (on another's GetS)
	MsgInvAck                   // L1 -> home: invalidation ack, no data
	MsgWBData                   // L1 -> home: data response to Inv/Downgrade of an M line
	MsgWriteback                // L1 -> home: spontaneous eviction of an M line
)

// String returns the message type's short name.
func (m MsgType) String() string {
	switch m {
	case MsgGetS:
		return "GetS"
	case MsgGetM:
		return "GetM"
	case MsgData:
		return "Data"
	case MsgInv:
		return "Inv"
	case MsgDowngrade:
		return "Dng"
	case MsgInvAck:
		return "InvAck"
	case MsgWBData:
		return "WBData"
	case MsgWriteback:
		return "WB"
	default:
		return "?"
	}
}

// Msg is one decoded protocol message.
type Msg struct {
	Type   MsgType
	Line   uint64 // line address
	Node   int    // transaction requester (context for Inv/Data at the L1)
	Kernel bool   // transaction attributed to kernel activity
	GrantM bool   // for MsgData: grants Modified instead of Shared
}

// Packet Aux encoding:
//
//	bits 63..16  line address
//	bits 15..8   requester node
//	bit  7       kernel
//	bit  6       grantM
//	bits 3..0    message type
const (
	auxLineShift = 16
	auxNodeShift = 8
	auxKernelBit = 1 << 7
	auxGrantMBit = 1 << 6
	auxTypeMask  = 0x0f
	auxNodeMask  = 0xff
)

// encode packs the message into a packet Aux word.
func (m Msg) encode() uint64 {
	a := m.Line<<auxLineShift | uint64(m.Node&auxNodeMask)<<auxNodeShift | uint64(m.Type)&auxTypeMask
	if m.Kernel {
		a |= auxKernelBit
	}
	if m.GrantM {
		a |= auxGrantMBit
	}
	return a
}

// decodeMsg unpacks a packet's Aux word.
func decodeMsg(aux uint64) Msg {
	return Msg{
		Type:   MsgType(aux & auxTypeMask),
		Line:   aux >> auxLineShift,
		Node:   int(aux >> auxNodeShift & auxNodeMask),
		Kernel: aux&auxKernelBit != 0,
		GrantM: aux&auxGrantMBit != 0,
	}
}

// kind maps a message type to the packet kind used for accounting.
func (m MsgType) kind() router.Kind {
	switch m {
	case MsgGetS, MsgGetM:
		return router.KindRequest
	case MsgData:
		return router.KindReply
	default:
		return router.KindCoherence
	}
}

// Packet sizes in flits: control messages fit one flit; a 64-byte line on
// 16-byte links (Table II) needs four payload flits plus a head flit.
const (
	CtrlFlits = 1
	DataFlits = 5
)

// size returns the message's packet length in flits.
func (m MsgType) size() int {
	switch m {
	case MsgData, MsgWBData, MsgWriteback:
		return DataFlits
	default:
		return CtrlFlits
	}
}

// Fabric is the interconnect abstraction the CMP runs on: the real
// cycle-accurate network, or the ideal network used to measure each
// benchmark's network access rate (Table III defines NAR as the injection
// rate under an ideal — fully connected, single-cycle — network).
type Fabric interface {
	NewPacket(src, dst, size int, kind router.Kind) *router.Packet
	Send(p *router.Packet)
	Step()
	Now() int64
	Quiescent() bool
	SetOnReceive(fn network.Receiver)
	// Release hands a delivered packet back for reuse once the receive
	// callback is done with it (see network.Network.Release).
	Release(p *router.Packet)
}

// NetFabric adapts network.Network to the Fabric interface; Release and
// the rest come from the embedded network.
type NetFabric struct{ *network.Network }

// SetOnReceive implements Fabric.
func (f NetFabric) SetOnReceive(fn network.Receiver) { f.Network.OnReceive = fn }

// IdealFabric is the paper's ideal network: fully connected, infinite
// bandwidth, single-cycle latency. Packets sent in cycle c are delivered in
// cycle c+1.
type IdealFabric struct {
	now       int64
	nextID    uint64
	onReceive network.Receiver
	pending   []*router.Packet // sent this cycle, delivered next Step
}

// NewIdealFabric returns an empty ideal fabric.
func NewIdealFabric() *IdealFabric { return &IdealFabric{} }

// NewPacket implements Fabric.
func (f *IdealFabric) NewPacket(src, dst, size int, kind router.Kind) *router.Packet {
	f.nextID++
	return &router.Packet{
		ID: f.nextID, Src: src, Dst: dst, Size: size, Kind: kind,
		CreateTime: f.now, InjectTime: f.now, ArriveTime: -1,
	}
}

// Send implements Fabric.
func (f *IdealFabric) Send(p *router.Packet) { f.pending = append(f.pending, p) }

// Step implements Fabric: a packet sent in cycle c is delivered in cycle
// c+1. Packets sent from within delivery callbacks wait for the next Step.
func (f *IdealFabric) Step() {
	deliver := f.pending
	f.pending = nil
	f.now++
	for _, p := range deliver {
		p.ArriveTime = f.now
		p.Hops = 1
		if f.onReceive != nil {
			f.onReceive(f.now, p)
		}
	}
}

// Now implements Fabric.
func (f *IdealFabric) Now() int64 { return f.now }

// Quiescent implements Fabric.
func (f *IdealFabric) Quiescent() bool { return len(f.pending) == 0 }

// SetOnReceive implements Fabric.
func (f *IdealFabric) SetOnReceive(fn network.Receiver) { f.onReceive = fn }

// Release implements Fabric. The ideal fabric recycles nothing: it
// measures access rates, not simulator throughput.
func (f *IdealFabric) Release(*router.Packet) {}
