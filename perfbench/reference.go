package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// reference.json holds the outputs of every pooled input, recorded with
// -record-reference from the code the benchmark was defined on. A change
// that only speeds the simulator up must leave every one of them equal.
//
//go:embed reference.json
var referenceJSON []byte

// refEntry is what each simulation operation is checked on: its end cycle
// (runtime), the packets it delivered, and its mean packet latency (for
// exec, its network access rate).
type refEntry struct {
	EndCycle int64   `json:"end_cycle"`
	Packets  int64   `json:"packets"`
	Mean     float64 `json:"mean"`
}

// references maps workload name to input key to reference output.
type references map[string]map[string]refEntry

var loadReferences = sync.OnceValues(func() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("parsing reference.json: %w", err)
	}
	return refs, nil
})

// checkOp returns why an operation failed: its own error, a missing
// reference, or an output that differs from the reference.
func checkOp(workload string, op simOp) error {
	if op.err != nil {
		return op.err
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	want, ok := refs[workload][op.key]
	if !ok {
		return fmt.Errorf("no reference output")
	}
	if op.got != want {
		return fmt.Errorf("output %+v differs from reference %+v", op.got, want)
	}
	return nil
}

// recordReferences simulates every pooled input of the simulation
// workloads untraced and writes their outputs to path.
func recordReferences(path string) error {
	refs := references{}
	add := func(workload string, op simOp) error {
		if op.err != nil {
			return fmt.Errorf("%s input %s: %w", workload, op.key, op.err)
		}
		if refs[workload] == nil {
			refs[workload] = map[string]refEntry{}
		}
		refs[workload][op.key] = op.got
		return nil
	}
	for s := uint64(1); s <= poolSize; s++ {
		if err := add("openloop-mesh8x8-knee", kneeOp(s, nil)); err != nil {
			return err
		}
		if err := add("batch-mesh8x8-sparse", sparseOp(s, nil)); err != nil {
			return err
		}
		for _, bench := range execBenchmarks {
			if err := add("exec-mesh4x4-cmp", execOp(bench, s)); err != nil {
				return err
			}
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
