package sim

// EventHeap is a min-heap of values keyed by a cycle time. It replaces a
// container/heap over an interface: pushes and pops neither box their
// values nor make interface calls. Its sift-up and sift-down are
// container/heap's own, step for step, so entries with equal times pop in
// exactly the order container/heap would pop them and a simulation that
// switches to it stays bit-identical.
type EventHeap[T any] struct {
	items []timed[T]
}

type timed[T any] struct {
	at int64
	v  T
}

// Len returns the number of queued events.
func (h *EventHeap[T]) Len() int { return len(h.items) }

// MinAt returns the time of the earliest event. It panics when empty.
func (h *EventHeap[T]) MinAt() int64 { return h.items[0].at }

// Push queues v at time at (container/heap.Push).
func (h *EventHeap[T]) Push(at int64, v T) {
	h.items = append(h.items, timed[T]{at, v})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the earliest event (container/heap.Pop: swap the
// root with the last entry, sift down over the rest, drop the last). It
// panics when empty.
func (h *EventHeap[T]) Pop() (at int64, v T) {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	e := h.items[n]
	h.items[n] = timed[T]{}
	h.items = h.items[:n]
	return e.at, e.v
}

func (h *EventHeap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h.items[j].at < h.items[i].at) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

func (h *EventHeap[T]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.items[j2].at < h.items[j1].at {
			j = j2 // right child
		}
		if !(h.items[j].at < h.items[i].at) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
