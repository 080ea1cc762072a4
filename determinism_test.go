package noceval

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"noceval/internal/closedloop"
	"noceval/internal/core"
	"noceval/internal/fault"
	"noceval/internal/network"
	"noceval/internal/obs"
	"noceval/internal/openloop"
)

// These tests are the regression gate for the activity-tracked cycle loop:
// the legacy full-scan path (kept for one release behind FullScan) and the
// default active-set + fast-forward path must produce identical Result
// structs and identical telemetry, cycle for cycle. They pin the refactor's
// central claim — the optimization changes how idle work is skipped, never
// what the simulation computes.

func TestOpenLoopActiveSetDeterminism(t *testing.T) {
	// The low-load leg exercises activity tracking; the knee legs keep most
	// routers busy, where the router's mask paths (route-compute mask,
	// stage-2 requester masks, free-listed packets) carry the load. The
	// age-based 2-class leg takes the strict-priority scans instead.
	base := core.Baseline()
	strictAge := core.Baseline()
	strictAge.VCs = 4
	strictAge.Arb = "age"
	strictAge.Classes = []core.ClassSpec{
		{Name: "hi", Share: 0.3},
		{Name: "lo", Share: 0.7, Sizes: "bimodal"},
	}
	legs := []struct {
		name string
		p    core.NetworkParams
		rate float64
	}{
		{"load=0.10", base, 0.1},
		{"load=0.40", base, 0.40},
		{"age-strict-2class/load=0.40", strictAge, 0.40},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			p := leg.p
			p.Shards = core.EnvShards() // CI matrix re-runs the gate at 1, 2, 4 shards
			cfg, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			pat, _ := p.BuildPattern()
			sizes, _ := p.BuildSizes()
			classes, err := p.BuildClasses()
			if err != nil {
				t.Fatal(err)
			}

			run := func(fullScan bool) (*openloop.Result, *obs.Telemetry) {
				o := obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250})
				res, err := openloop.Run(openloop.Config{
					Net: cfg, Pattern: pat, Sizes: sizes, Classes: classes, Rate: leg.rate,
					Warmup: 500, Measure: 2000, DrainLimit: 10000, Seed: 42,
					Obs: o, FullScan: fullScan,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, o.Telemetry
			}

			resFull, telFull := run(true)
			resActive, telActive := run(false)

			if !reflect.DeepEqual(resFull, resActive) {
				t.Errorf("open-loop results diverge:\nfullscan:  %+v\nactiveset: %+v", resFull, resActive)
			}
			if !reflect.DeepEqual(telFull, telActive) {
				t.Errorf("open-loop telemetry diverges: fullscan %d router / %d node samples, activeset %d / %d",
					len(telFull.Routers), len(telFull.Nodes), len(telActive.Routers), len(telActive.Nodes))
			}
		})
	}
}

// TestOpenLoopKneePinnedDeterminism pins three open-loop runs at the 8x8 knee (load
// 0.40, the repository benchmark's phases) to figures recorded before the
// router state was flattened and packets were recycled: end cycle,
// delivered packets, and the exact bits of the mean latency. Any change to
// allocation order, packet identity, or RNG draw order moves at least one.
func TestOpenLoopKneePinnedDeterminism(t *testing.T) {
	pins := []struct {
		seed      uint64
		endCycle  int64
		delivered int64
		avgBits   uint64
	}{
		{1, 3069, 77747, 0x403846d07b2c424d},
		{2, 3108, 78791, 0x4038750d32327261},
		{3, 3083, 78206, 0x4038b07ae3207d88},
	}
	for _, pin := range pins {
		t.Run(fmt.Sprintf("seed=%d", pin.seed), func(t *testing.T) {
			p := core.Baseline()
			p.Seed = pin.seed
			cfg, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			pat, _ := p.BuildPattern()
			sizes, _ := p.BuildSizes()
			var delivered int64
			res, err := openloop.Run(openloop.Config{
				Net: cfg, Pattern: pat, Sizes: sizes, Rate: 0.40,
				Warmup: 1000, Measure: 2000, DrainLimit: 20000, Seed: p.Seed,
				Inspect: func(n *network.Network) { _, delivered, _, _ = n.Stats() },
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.EndCycle != pin.endCycle || delivered != pin.delivered ||
				math.Float64bits(res.AvgLatency) != pin.avgBits {
				t.Errorf("knee run moved: end cycle %d, delivered %d, mean latency %v (%#x); want %d, %d, %v (%#x)",
					res.EndCycle, delivered, res.AvgLatency, math.Float64bits(res.AvgLatency),
					pin.endCycle, pin.delivered, math.Float64frombits(pin.avgBits), pin.avgBits)
			}
		})
	}
}

func TestBatchActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	p.Shards = core.EnvShards()
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}

	// A long reply latency with a tight MSHR limit makes the run mostly
	// idle, so the active-set side exercises the quiescence fast-forward
	// heavily; the kernel timer and timeline buckets add scheduled events
	// the skip must land on exactly.
	run := func(fullScan bool) (*closedloop.BatchResult, *obs.Telemetry) {
		o := obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250})
		res, err := closedloop.RunBatch(closedloop.BatchConfig{
			Net: cfg, B: 24, M: 2, Seed: 42,
			Reply:          closedloop.FixedReply{Latency: 300},
			Kernel:         &closedloop.KernelConfig{StaticFraction: 0.1, TimerPeriod: 700, TimerBatch: 2},
			SampleInterval: 500,
			CollectMatrix:  true,
			MaxCycles:      2_000_000,
			Obs:            o, FullScan: fullScan,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("batch run did not complete")
		}
		return res, o.Telemetry
	}

	resFull, telFull := run(true)
	resActive, telActive := run(false)

	if !reflect.DeepEqual(resFull, resActive) {
		t.Errorf("batch results diverge:\nfullscan:  runtime=%d packets=%d flits=%d avglat=%v timeline=%d\nactiveset: runtime=%d packets=%d flits=%d avglat=%v timeline=%d",
			resFull.Runtime, resFull.TotalPackets, resFull.TotalFlits, resFull.AvgPacketLatency, len(resFull.Timeline),
			resActive.Runtime, resActive.TotalPackets, resActive.TotalFlits, resActive.AvgPacketLatency, len(resActive.Timeline))
	}
	if !reflect.DeepEqual(telFull, telActive) {
		t.Errorf("batch telemetry diverges: fullscan %d router / %d node samples, activeset %d / %d",
			len(telFull.Routers), len(telFull.Nodes), len(telActive.Routers), len(telActive.Nodes))
	}
}

func TestBarrierActiveSetDeterminism(t *testing.T) {
	p := core.Baseline()
	p.Shards = core.EnvShards()
	cfg, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(fullScan bool) *closedloop.BarrierResult {
		res, err := closedloop.RunBarrier(closedloop.BarrierConfig{
			Net: cfg, B: 50, Phases: 3, Seed: 42, FullScan: fullScan,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("barrier run did not complete")
		}
		return res
	}
	resFull := run(true)
	resActive := run(false)
	if !reflect.DeepEqual(resFull, resActive) {
		t.Errorf("barrier results diverge:\nfullscan:  %+v\nactiveset: %+v", resFull, resActive)
	}
}

// TestShardedRunModeDeterminism is the run-mode-level gate for the sharded
// cycle loop: every run mode, executed end to end (engine fast-forward,
// telemetry sampling, result assembly), must produce a Result struct and
// telemetry stream identical under any shard count. Shard counts beyond
// the machine's core count are included deliberately — correctness must
// not depend on the gang actually running in parallel.
func TestShardedRunModeDeterminism(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		p := core.Baseline()
		cfg, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		p.Shards = shards
		cfgSh, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}

		t.Run(fmt.Sprintf("openloop/shards=%d", shards), func(t *testing.T) {
			pat, _ := p.BuildPattern()
			sizes, _ := p.BuildSizes()
			run := func(c network.Config) (*openloop.Result, *obs.Telemetry) {
				o := obs.NewObserver(obs.Options{Metrics: true, SampleEvery: 250})
				res, err := openloop.Run(openloop.Config{
					Net: c, Pattern: pat, Sizes: sizes, Rate: 0.15,
					Warmup: 500, Measure: 2000, DrainLimit: 10000, Seed: 42,
					Obs: o,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, o.Telemetry
			}
			resSeq, telSeq := run(cfg)
			resSh, telSh := run(cfgSh)
			if !reflect.DeepEqual(resSeq, resSh) {
				t.Errorf("open-loop results diverge:\nsequential: %+v\nsharded:    %+v", resSeq, resSh)
			}
			if !reflect.DeepEqual(telSeq, telSh) {
				t.Errorf("open-loop telemetry diverges: sequential %d router samples, sharded %d",
					len(telSeq.Routers), len(telSh.Routers))
			}
		})

		t.Run(fmt.Sprintf("batch/shards=%d", shards), func(t *testing.T) {
			run := func(c network.Config) *closedloop.BatchResult {
				res, err := closedloop.RunBatch(closedloop.BatchConfig{
					Net: c, B: 24, M: 2, Seed: 42,
					Reply:     closedloop.FixedReply{Latency: 300},
					MaxCycles: 2_000_000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatal("batch run did not complete")
				}
				return res
			}
			resSeq := run(cfg)
			resSh := run(cfgSh)
			if !reflect.DeepEqual(resSeq, resSh) {
				t.Errorf("batch results diverge:\nsequential: runtime=%d packets=%d\nsharded:    runtime=%d packets=%d",
					resSeq.Runtime, resSeq.TotalPackets, resSh.Runtime, resSh.TotalPackets)
			}
		})

		t.Run(fmt.Sprintf("barrier/shards=%d", shards), func(t *testing.T) {
			run := func(c network.Config) *closedloop.BarrierResult {
				res, err := closedloop.RunBarrier(closedloop.BarrierConfig{
					Net: c, B: 50, Phases: 3, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatal("barrier run did not complete")
				}
				return res
			}
			resSeq := run(cfg)
			resSh := run(cfgSh)
			if !reflect.DeepEqual(resSeq, resSh) {
				t.Errorf("barrier results diverge:\nsequential: %+v\nsharded:    %+v", resSeq, resSh)
			}
		})
	}
}

// TestBatchPinnedDeterminism pins closed-loop batch runs to values recorded
// before the batch driver tracked eligible nodes in a bitset and kept
// replies in a typed heap. The full-scan and active-set engine paths share
// the driver, so the cross-engine tests above cannot see a driver change
// that moves results; these pins can. The legs cover the sparse benchmark
// batch (b=200, m=1, 1000-cycle replies), the kernel timer (which makes
// nodes eligible again), m=4 with probabilistic replies (many equal reply
// ready times, so heap tie order matters), and a lossy network whose
// recovery NIC abandons transactions (the dead-drop path).
func TestBatchPinnedDeterminism(t *testing.T) {
	pins := []struct {
		name      string
		seed      uint64
		runtime   int64
		delivered int64
		avgBits   uint64
		failed    int64
	}{
		{"sparse/seed=1", 1, 206157, 25600, 0x402708947ae147ae, 0},
		{"sparse/seed=2", 2, 206394, 25600, 0x402708e666666666, 0},
		{"sparse/seed=3", 3, 206516, 25600, 0x402728e147ae147b, 0},
		{"kernel-timer", 1, 34669, 25936, 0x4026ffaf242a5312, 0},
		{"m=4", 1, 5062, 25600, 0x4027b7a8f5c28f5c, 0},
		{"nic-faulted", 1, 8816, 12558, 0x403d342fc88d3aea, 160},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			p := core.Baseline()
			p.Seed = pin.seed
			bc := closedloop.BatchConfig{
				B: 200, M: 1, Seed: pin.seed,
				Reply: closedloop.FixedReply{Latency: 1000},
			}
			switch pin.name {
			case "kernel-timer":
				bc.B, bc.M = 100, 2
				bc.Reply = closedloop.FixedReply{Latency: 300}
				bc.Kernel = &closedloop.KernelConfig{StaticFraction: 0.1, TimerPeriod: 700, TimerBatch: 2, KernelNAR: 0.5}
			case "m=4":
				bc.B, bc.M, bc.NAR = 200, 4, 0.3
				bc.Reply = closedloop.ProbabilisticReply{L2Latency: 20, MemoryLatency: 300, MissRate: 0.1}
			case "nic-faulted":
				bc.B, bc.M = 100, 2
				bc.Reply = closedloop.FixedReply{Latency: 50}
				p.Fault = &fault.Params{DropRate: 0.02, Timeout: 200, MaxRetries: 1}
			}
			cfg, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			bc.Net = cfg
			bc.Pattern, _ = p.BuildPattern()
			var delivered int64
			bc.Inspect = func(n *network.Network) { _, delivered, _, _ = n.Stats() }
			res, err := closedloop.RunBatch(bc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("batch run did not complete (stalled %v)", res.Stalled)
			}
			if res.Runtime != pin.runtime || delivered != pin.delivered ||
				math.Float64bits(res.AvgPacketLatency) != pin.avgBits || res.FailedTransactions != pin.failed {
				t.Errorf("batch run moved: runtime %d, delivered %d, mean latency %v (%#x), failed %d; want %d, %d, %v (%#x), %d",
					res.Runtime, delivered, res.AvgPacketLatency, math.Float64bits(res.AvgPacketLatency), res.FailedTransactions,
					pin.runtime, pin.delivered, math.Float64frombits(pin.avgBits), pin.avgBits, pin.failed)
			}
		})
	}
}
