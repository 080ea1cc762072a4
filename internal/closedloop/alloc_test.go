package closedloop

import "testing"

// TestBatchSteadyStateZeroAllocs pins the batch driver's per-cycle path as
// allocation-free on a warm sparse run (b=200, m=1, 1000-cycle replies on
// the 8x8 mesh): requests and replies reuse released packets and the reply
// heap holds its events unboxed.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	cfg := BatchConfig{Net: meshConfig(1, 16), B: 200, M: 1, Seed: 1, Reply: FixedReply{Latency: 1000}}
	cfg.fillDefaults()
	d := newBatch(&cfg)
	defer d.net.Close()
	cycle := func() {
		d.Cycle(d.net.Now())
		d.net.Step()
	}
	for i := 0; i < 3000; i++ {
		cycle()
	}
	// AllocsPerRun truncates its mean to a whole number, and a sparse
	// batch sees a reply only every few cycles, so each run steps 200
	// cycles: one allocation per reply would still read as nonzero.
	_, before, _, _ := d.net.Stats()
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 200; i++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Errorf("200 steady-state batch cycles allocate %.0f times, want 0", allocs)
	}
	if _, after, _, _ := d.net.Stats(); after-before < 100 {
		t.Fatalf("only %d packets arrived in 2200 cycles: the batch is not running", after-before)
	}
	if d.finished != 0 {
		t.Fatalf("%d nodes finished during warm-up: the batch is not in steady state", d.finished)
	}
}
