package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	err := quick.Check(func(n int) bool {
		n = n%1000 + 1
		if n < 1 {
			n = -n + 1
		}
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(7)
	const n, iters = 10, 100000
	counts := make([]int, n)
	for i := 0; i < iters; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / iters
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.3f, want ~0.1", i, frac)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / 100000; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestBernoulliEdgesAndRate(t *testing.T) {
	r := NewRNG(2)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if f := float64(hits) / 100000; f < 0.28 || f > 0.32 {
		t.Errorf("Bernoulli(0.3) rate = %.3f", f)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(3)
	const p = 0.25
	sum := 0.0
	for i := 0; i < 100000; i++ {
		g := r.Geometric(p)
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += float64(g)
	}
	if mean := sum / 100000; math.Abs(mean-1/p) > 0.15 {
		t.Errorf("Geometric(%.2f) mean = %.3f, want %.1f", p, mean, 1/p)
	}
	if r.Geometric(1) != 1 {
		t.Error("Geometric(1) != 1")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		sum += r.Exp(20)
	}
	if mean := sum / 100000; math.Abs(mean-20) > 0.5 {
		t.Errorf("Exp(20) mean = %.2f", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(4)
	err := quick.Check(func(seed uint64) bool {
		p := NewRNG(seed).Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
	_ = r
}

func TestSplitIndependence(t *testing.T) {
	a := NewRNG(9)
	b := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collided %d/1000 times", same)
	}
}

func TestFIFOOrdering(t *testing.T) {
	q := NewFIFO[int](2)
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty succeeded")
	}
}

func TestFIFOInterleavedPushPop(t *testing.T) {
	q := NewFIFO[int](4)
	next, expect := 0, 0
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		if r.Bernoulli(0.6) {
			q.Push(next)
			next++
		} else if v, ok := q.Pop(); ok {
			if v != expect {
				t.Fatalf("expected %d got %d", expect, v)
			}
			expect++
		}
	}
}

func TestBoundedFIFO(t *testing.T) {
	q := MakeBoundedFIFO[int](3)
	for i := 0; i < 3; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.Push(99) {
		t.Error("push beyond capacity accepted")
	}
	if !q.Full() {
		t.Error("Full() false at capacity")
	}
	v, _ := q.Pop()
	if v != 0 {
		t.Errorf("pop = %d, want 0", v)
	}
	if !q.Push(3) {
		t.Error("push after pop rejected")
	}
}

func TestFIFOPeekAtClear(t *testing.T) {
	q := NewFIFO[string](4)
	q.Push("a")
	q.Push("b")
	if v, _ := q.Peek(); v != "a" {
		t.Errorf("peek = %q", v)
	}
	if q.At(1) != "b" {
		t.Errorf("At(1) = %q", q.At(1))
	}
	q.Clear()
	if q.Len() != 0 {
		t.Error("clear did not empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	q.At(0)
}

func TestDelayLineTiming(t *testing.T) {
	d := MakeDelayLine[int](3)
	d.Push(10, 1)
	for now := int64(10); now < 13; now++ {
		if _, ok := d.PopReady(now); ok {
			t.Fatalf("item ready early at %d", now)
		}
	}
	v, ok := d.PopReady(13)
	if !ok || v != 1 {
		t.Fatalf("item not ready at 13: %v %v", v, ok)
	}
}

func TestDelayLineFIFOOrder(t *testing.T) {
	d := MakeDelayLine[int](2)
	d.Push(0, 1)
	d.Push(1, 2)
	if v, ok := d.PopReady(5); !ok || v != 1 {
		t.Fatalf("first pop = %v ok=%v", v, ok)
	}
	if v, ok := d.PopReady(5); !ok || v != 2 {
		t.Fatalf("second pop = %v ok=%v", v, ok)
	}
}

func TestTicker(t *testing.T) {
	tk := NewTicker(10, 10)
	fires := 0
	for now := int64(0); now <= 100; now++ {
		if tk.Fire(now) {
			fires++
		}
	}
	if fires != 10 {
		t.Errorf("fired %d times in 100 cycles at period 10, want 10", fires)
	}
	if NewTicker(0, 0).Fire(5) {
		t.Error("zero-period ticker fired")
	}
	// Missed periods coalesce into one fire and resynchronize.
	tk = NewTicker(10, 10)
	if !tk.Fire(55) {
		t.Error("missed-period fire lost")
	}
	if tk.Fire(59) {
		t.Error("fired again before next period")
	}
	if !tk.Fire(60) {
		t.Error("did not fire at resynchronized period")
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("clock not zero")
	}
	if c.Tick() != 1 || c.Now() != 1 {
		t.Error("tick broken")
	}
	c.Reset()
	if c.Now() != 0 {
		t.Error("reset broken")
	}
}
