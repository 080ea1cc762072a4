package sim

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are the container/heap implementation EventHeap
// replaces; the property test holds the two to the same pop order.
type refEvent struct {
	at int64
	id int
}

type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// TestEventHeapMatchesContainerHeap interleaves random pushes and pops,
// with keys drawn from a small range so most keys repeat, and requires
// EventHeap to pop exactly the entries container/heap pops, ties included.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := NewRNG(seed)
		var got EventHeap[int]
		var want refHeap
		keys := 1 + rng.Intn(12)
		for op := 0; op < 2000; op++ {
			if want.Len() == 0 || rng.Intn(3) > 0 {
				at := int64(rng.Intn(keys))
				got.Push(at, op)
				heap.Push(&want, refEvent{at, op})
				continue
			}
			at, id := got.Pop()
			w := heap.Pop(&want).(refEvent)
			if at != w.at || id != w.id {
				t.Fatalf("seed %d op %d: popped (%d, %d), container/heap pops (%d, %d)", seed, op, at, id, w.at, w.id)
			}
			if got.Len() != want.Len() {
				t.Fatalf("seed %d op %d: length %d, want %d", seed, op, got.Len(), want.Len())
			}
			if got.Len() > 0 && got.MinAt() != want[0].at {
				t.Fatalf("seed %d op %d: MinAt %d, want %d", seed, op, got.MinAt(), want[0].at)
			}
		}
		for want.Len() > 0 {
			at, id := got.Pop()
			w := heap.Pop(&want).(refEvent)
			if at != w.at || id != w.id {
				t.Fatalf("seed %d drain: popped (%d, %d), container/heap pops (%d, %d)", seed, at, id, w.at, w.id)
			}
		}
	}
}

func TestEventHeapPushPopAllocFree(t *testing.T) {
	var h EventHeap[int]
	for i := 0; i < 64; i++ {
		h.Push(int64(i%7), i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		at, v := h.Pop()
		h.Push(at+7, v)
	})
	if allocs != 0 {
		t.Fatalf("Pop+Push allocated %v times per run, want 0", allocs)
	}
}
