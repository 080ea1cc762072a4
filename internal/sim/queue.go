package sim

// FIFO is a generic ring-buffer queue. It grows on demand when constructed
// unbounded, or rejects pushes past a fixed capacity when bounded. It is the
// building block for router VC buffers (bounded) and source queues
// (unbounded).
type FIFO[T any] struct {
	buf     []T
	head    int
	n       int
	bounded bool
}

// NewFIFO returns an unbounded FIFO with the given initial capacity hint.
func NewFIFO[T any](hint int) *FIFO[T] {
	if hint < 4 {
		hint = 4
	}
	return &FIFO[T]{buf: make([]T, hint)}
}

// MakeBoundedFIFO returns a FIFO that holds at most capacity items. It
// returns the queue by value so owners can embed it (the router's input
// VCs) instead of reaching it through a pointer.
func MakeBoundedFIFO[T any](capacity int) FIFO[T] {
	if capacity < 1 {
		capacity = 1
	}
	return FIFO[T]{buf: make([]T, capacity), bounded: true}
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Cap returns the capacity for a bounded FIFO, or the current backing size
// for an unbounded one.
func (q *FIFO[T]) Cap() int { return len(q.buf) }

// Full reports whether a bounded FIFO cannot accept another item.
func (q *FIFO[T]) Full() bool { return q.bounded && q.n == len(q.buf) }

// Push appends an item, reporting whether it was accepted. Unbounded FIFOs
// always accept and grow as needed.
func (q *FIFO[T]) Push(v T) bool {
	if q.n == len(q.buf) {
		return q.pushFull(v)
	}
	// head < len and n < len, so a compare-and-subtract wraps the index
	// without the integer divide a % would cost on this hot path.
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
	return true
}

// pushFull is Push's slow path, kept out of line so Push inlines: a full
// bounded FIFO rejects the item, a full unbounded one grows first.
//
//go:noinline
func (q *FIFO[T]) pushFull(v T) bool {
	if q.bounded {
		return false
	}
	q.grow()
	q.buf[q.n] = v // grow leaves head at 0 and free slots past n
	q.n++
	return true
}

func (q *FIFO[T]) grow() {
	nb := make([]T, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Pop removes and returns the oldest item. ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v, true
}

// Peek returns the oldest item without removing it. ok is false when empty.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest item (0 = front). It panics when out of range.
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return q.buf[j]
}

// Clear empties the queue, releasing references so the GC can reclaim
// queued values.
func (q *FIFO[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = zero
	}
	q.head, q.n = 0, 0
}

// DelayLine models a fixed-latency pipeline (a link or a router's internal
// stages): items pushed at cycle c become visible exactly c+delay cycles
// later. A zero delay makes items visible the same cycle they are pushed.
type DelayLine[T any] struct {
	delay int64
	q     FIFO[delayed[T]] // by value: one pointer hop fewer per access
	// headAt caches the delivery time of the head item (meaningless while
	// empty), so polling a not-yet-ready line is a comparison rather than
	// a queue peek. PopReady runs once per port per cycle on the
	// simulator's hottest loop.
	headAt int64
}

type delayed[T any] struct {
	at int64
	v  T
}

// MakeDelayLine returns a delay line with the given latency in cycles.
// Negative delays are treated as zero. It returns the line by value so
// owners can hold their lines in a slice (the router's output pipelines)
// instead of reaching each through a pointer.
func MakeDelayLine[T any](delay int64) DelayLine[T] {
	if delay < 0 {
		delay = 0
	}
	return DelayLine[T]{delay: delay, q: FIFO[delayed[T]]{buf: make([]delayed[T], 8)}}
}

// Delay returns the line's latency in cycles.
func (d *DelayLine[T]) Delay() int64 { return d.delay }

// Len returns the number of items in flight.
func (d *DelayLine[T]) Len() int { return d.q.Len() }

// Push inserts an item at cycle now; it becomes ready at now+delay.
func (d *DelayLine[T]) Push(now int64, v T) {
	if d.q.Len() == 0 {
		d.headAt = now + d.delay
	}
	d.q.Push(delayed[T]{at: now + d.delay, v: v})
}

// PopReady removes and returns the next item whose delivery time has been
// reached at cycle now. ok is false when nothing is ready.
func (d *DelayLine[T]) PopReady(now int64) (v T, ok bool) {
	if d.q.Len() == 0 || d.headAt > now {
		var zero T
		return zero, false
	}
	head, _ := d.q.Pop()
	if next, ok := d.q.Peek(); ok {
		d.headAt = next.at
	}
	return head.v, true
}

// NextReadyAt returns the cycle at which the head item becomes deliverable,
// or -1 when the line is empty.
func (d *DelayLine[T]) NextReadyAt() int64 {
	if d.q.Len() == 0 {
		return -1
	}
	return d.headAt
}

// ForEach visits every in-flight item oldest-first without removing any.
// It is meant for inspection (invariant checking, stuck-state dumps), not
// the per-cycle path.
func (d *DelayLine[T]) ForEach(fn func(v T)) {
	for i := 0; i < d.q.Len(); i++ {
		fn(d.q.At(i).v)
	}
}

// Drain removes every in-flight item, ready or not, invoking fn on each in
// delivery order. Fault injection uses it to purge the pipelines of a
// killed router.
func (d *DelayLine[T]) Drain(fn func(v T)) {
	for {
		it, ok := d.q.Pop()
		if !ok {
			return
		}
		fn(it.v)
	}
}
