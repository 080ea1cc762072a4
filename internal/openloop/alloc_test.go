package openloop

import "testing"

// TestSteadyStateCycleZeroAllocs pins the allocation-free open-loop hot
// path: once an 8x8 run at 0.40 flits/node/cycle (just under saturation)
// is warm, a whole cycle — the driver's injection draws, packet creation,
// Network.Step, and the receive callback handing packets back through
// Release — allocates nothing. The run stays inside its warmup phase, so
// the measured-latency slice, which grows with the measurement, is not
// part of the cycle.
func TestSteadyStateCycleZeroAllocs(t *testing.T) {
	s, err := newRun(Config{Net: meshConfig(1, 16), Rate: 0.40, Seed: 1, Warmup: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer s.net.Close()
	cycle := func() {
		s.d.Cycle(s.net.Now())
		s.net.Step()
	}
	for i := 0; i < 3000; i++ {
		cycle()
	}
	_, before, _, _ := s.net.Stats()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("steady-state open-loop cycle allocates %.2f allocs/op, want 0", allocs)
	}
	if _, after, _, _ := s.net.Stats(); after-before < 200*20 {
		t.Fatalf("only %d packets arrived in 200 cycles: the network is not at the knee", after-before)
	}
}
