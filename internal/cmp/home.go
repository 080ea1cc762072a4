package cmp

// dirState is the directory's view of a line.
type dirState uint8

const (
	dInvalid dirState = iota
	dShared
	dModified
)

// dirEntry is the full-map directory state of one line plus its transient
// transaction state. The directory serializes transactions per line: while
// busy, newly arriving requests are deferred.
type dirEntry struct {
	state   dirState
	sharers uint64 // bitmask, tiles <= 64
	owner   int

	busy      bool
	reqType   MsgType
	requester int
	reqKernel bool

	acksLeft  int
	dataReady bool
	// needOwner is set while waiting for the previous owner's response to
	// an Inv/Downgrade.
	needOwner bool

	// staleWBFrom drops one in-flight Writeback from the given node: set
	// when a node re-requests a line whose M copy it just evicted.
	staleWBFrom int

	deferred []deferredMsg
}

type deferredMsg struct {
	msg Msg
	src int
}

// homeEvent is a scheduled L2/memory access completion, queued by its
// completion time.
type homeEvent struct {
	tile int
	line uint64
}

// DebugL2Miss, when non-nil, observes every L2-missing line address
// (debugging hook; nil in production).
var DebugL2Miss func(line uint64)

// home is one tile's shared-L2 bank with its directory slice.
type home struct {
	sys  *System
	tile int
	l2   *Cache
	dir  map[uint64]*dirEntry

	// L2 access statistics, split user/kernel by transaction class.
	l2Access [2]int64
	l2Miss   [2]int64
}

func newHome(sys *System, tile int, l2 *Cache) *home {
	return &home{sys: sys, tile: tile, l2: l2, dir: map[uint64]*dirEntry{}}
}

func (h *home) entry(line uint64) *dirEntry {
	e := h.dir[line]
	if e == nil {
		e = &dirEntry{owner: -1, staleWBFrom: -1}
		h.dir[line] = e
	}
	return e
}

// handle processes one protocol message arriving at this home tile.
func (h *home) handle(m Msg, src int) {
	e := h.entry(m.Line)
	switch m.Type {
	case MsgGetS, MsgGetM:
		if e.busy {
			e.deferred = append(e.deferred, deferredMsg{msg: m, src: src})
			return
		}
		h.start(e, m, src)
	case MsgInvAck:
		if !e.busy {
			return // late ack from a silently evicted sharer; ignore
		}
		if e.needOwner && src == e.owner {
			// The owner lost the line (eviction or grant race) and has no
			// data: fall back to L2/memory for the data.
			e.needOwner = false
			h.fetchData(e, m.Line)
			h.tryComplete(e, m.Line)
			return
		}
		if e.acksLeft > 0 {
			e.acksLeft--
		}
		h.tryComplete(e, m.Line)
	case MsgWBData:
		// Data response from the previous owner to an Inv/Downgrade.
		if e.busy && e.needOwner && src == e.owner {
			e.needOwner = false
			e.dataReady = true
			h.l2.Insert(m.Line, Shared)
			h.tryComplete(e, m.Line)
			return
		}
		// Unsolicited data (e.g. race remnant): absorb like a writeback.
		h.writeback(e, m.Line, src)
	case MsgWriteback:
		if e.staleWBFrom == src {
			e.staleWBFrom = -1
			return
		}
		if e.busy && e.needOwner && src == e.owner {
			// The eviction raced with our Inv/Downgrade; use its data.
			e.needOwner = false
			e.dataReady = true
			h.l2.Insert(m.Line, Shared)
			h.tryComplete(e, m.Line)
			return
		}
		h.writeback(e, m.Line, src)
	}
}

// writeback retires an owner's spontaneous M eviction.
func (h *home) writeback(e *dirEntry, line uint64, src int) {
	if e.state == dModified && e.owner == src {
		e.state = dInvalid
		e.owner = -1
		e.sharers = 0
		h.l2.Insert(line, Shared)
	}
}

// start begins serving a GetS/GetM transaction.
func (h *home) start(e *dirEntry, m Msg, src int) {
	e.busy = true
	e.reqType = m.Type
	e.requester = m.Node
	e.reqKernel = m.Kernel
	e.acksLeft = 0
	e.dataReady = false
	e.needOwner = false

	if e.state == dModified && e.owner == e.requester {
		// The owner evicted the line and is re-requesting before its
		// writeback arrived; expect and drop that writeback.
		e.staleWBFrom = e.requester
		e.state = dInvalid
		e.owner = -1
	}

	switch {
	case e.state == dModified:
		e.needOwner = true
		if m.Type == MsgGetS {
			h.sys.send(h.tile, e.owner, Msg{Type: MsgDowngrade, Line: m.Line, Node: e.requester, Kernel: m.Kernel})
		} else {
			h.sys.send(h.tile, e.owner, Msg{Type: MsgInv, Line: m.Line, Node: e.requester, Kernel: m.Kernel})
		}
	case e.state == dShared && m.Type == MsgGetM:
		for t := 0; t < h.sys.tiles; t++ {
			if t == e.requester || e.sharers&(1<<uint(t)) == 0 {
				continue
			}
			e.acksLeft++
			h.sys.send(h.tile, t, Msg{Type: MsgInv, Line: m.Line, Node: e.requester, Kernel: m.Kernel})
		}
		h.fetchData(e, m.Line)
	default:
		h.fetchData(e, m.Line)
	}
	h.tryComplete(e, m.Line)
}

// fetchData schedules the L2 (or L2+memory) access that produces the data.
func (h *home) fetchData(e *dirEntry, line uint64) {
	cls := 0
	if e.reqKernel {
		cls = 1
	}
	h.l2Access[cls]++
	lat := h.sys.cfg.L2Latency
	if h.l2.Lookup(line) == Invalid {
		if DebugL2Miss != nil {
			DebugL2Miss(line)
		}
		h.l2Miss[cls]++
		lat += h.sys.cfg.MemLatency
		h.l2.Insert(line, Shared)
	}
	h.sys.events.Push(h.sys.fabric.Now()+lat, homeEvent{tile: h.tile, line: line})
}

// dataArrived is called when a scheduled L2/memory access completes.
func (h *home) dataArrived(line uint64) {
	e := h.dir[line]
	if e == nil || !e.busy {
		return
	}
	e.dataReady = true
	h.tryComplete(e, line)
}

// tryComplete finishes the transaction once all acks and the data are in,
// then starts the next deferred request, if any.
func (h *home) tryComplete(e *dirEntry, line uint64) {
	if !e.busy || e.needOwner || e.acksLeft > 0 || !e.dataReady {
		return
	}
	grant := Msg{Type: MsgData, Line: line, Node: e.requester, Kernel: e.reqKernel}
	if e.reqType == MsgGetM {
		grant.GrantM = true
		e.state = dModified
		e.owner = e.requester
		e.sharers = 1 << uint(e.requester)
	} else {
		if e.state == dModified {
			// Previous owner was downgraded to Shared.
			e.sharers = 1 << uint(e.owner)
			e.owner = -1
		}
		e.state = dShared
		e.sharers |= 1 << uint(e.requester)
	}
	h.sys.send(h.tile, e.requester, grant)
	e.busy = false
	if len(e.deferred) > 0 {
		next := e.deferred[0]
		e.deferred = e.deferred[1:]
		h.start(e, next.msg, next.src)
	}
}
