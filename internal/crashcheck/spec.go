// Package crashcheck is a deterministic crash-consistency model checker
// for the engine. Given a seeded workload spec, it first runs crash-free
// to capture oracle digests of the state before and after a probe epoch,
// then explores the crash-point space of that epoch — a device fail-point
// after every flushed line for small workloads, stratified sampling biased
// toward persist-phase (fence) boundaries for large ones, crossed with the
// three crash modes and with double faults during recovery — recovering at
// every point and checking that the recovered state matches the oracle and
// satisfies the engine's structural invariants.
//
// Exploration restarts from a device snapshot taken at the probe boundary
// (nvm.Snapshot), so each point costs one recovery plus one partial epoch
// instead of a full workload re-run, and runs on a pool of workers with
// one device replica each. Violations carry the exact crash point; the
// minimizer shrinks the workload spec while the violation still
// reproduces and emits a JSON reproducer replayable by cmd/nvtorture.
package crashcheck

import (
	"encoding/json"
	"fmt"
	"os"
)

// Spec is a seeded, fully deterministic workload description. Two runs of
// the same spec produce identical epochs, flush sequences, and digests.
type Spec struct {
	// Workload selects the generator: "kv" (built-in mixed KV with GC
	// pressure, deletes, inserts, and aborts), "ycsb", "smallbank", or
	// "tpcc" (the engine's workload packages).
	Workload string `json:"workload"`
	// Aria runs the warm and probe epochs with Aria-style concurrency
	// control instead of declared write sets. Supported for "kv".
	Aria bool `json:"aria,omitempty"`
	// Cores is the engine core count (and device pool split).
	Cores int `json:"cores"`
	// Seed drives every random choice of the generator.
	Seed int64 `json:"seed"`
	// Rows scales the dataset: KV keys, YCSB rows, SmallBank customers, or
	// TPC-C warehouses.
	Rows int `json:"rows"`
	// WarmEpochs is how many committed epochs run between the initial load
	// and the probe epoch (the epoch whose crash points are explored).
	WarmEpochs int `json:"warm_epochs"`
	// TxnsPerEpoch sizes each warm and probe batch.
	TxnsPerEpoch int `json:"txns_per_epoch"`
	// ValueBytes is the KV payload size; above the inline threshold
	// (96 bytes at the default 256-byte row) values go to the pools and the
	// major collector runs. Ignored by the other workloads.
	ValueBytes int `json:"value_bytes,omitempty"`
	// MinorGC enables the minor collector.
	MinorGC bool `json:"minor_gc"`
	// ChaosDenom, when positive, enables chaos eviction with probability
	// 1/ChaosDenom per store — required to exercise intra-line torn
	// descriptors (§4.5 repair).
	ChaosDenom int `json:"chaos_denom,omitempty"`
	// PersistIndex enables the persistent index journal (§7 extension), so
	// exploration covers the journal fast path of recovery.
	PersistIndex bool `json:"persist_index,omitempty"`
	// Pipeline runs the engine's depth-1 epoch pipeline (core.Options.
	// Pipeline): epoch N's entire checkpoint — counters, parallel pool
	// staging, the index-journal block, the checkpoint fence, and the epoch
	// record — runs on a background committer while epoch N+1's front
	// proceeds. The probe window then spans TWO overlapped engine epochs (P
	// and P+1, no drain between), so fail points land inside the overlap:
	// in P's committer while P+1 serializes, inits, or executes, or in
	// P+1's front while P commits. The committer's staging goroutines
	// interleave with the front nondeterministically even on one core, so a
	// pipeline sweep samples one interleaving per point
	// (Report.Deterministic records this); the recovered-state checks are
	// interleaving-independent and still apply at every point. A fail point
	// fires on exactly one goroutine — the checker drains the surviving
	// side before cutting the device, matching real hardware, where the
	// power failure (not the crashed thread) stops the other cores' stores
	// mid-flight via the crash mode's line-granular lottery.
	Pipeline bool `json:"pipeline,omitempty"`
}

// DefaultSpec returns a small KV spec whose probe epoch exercises final
// writes (inline and pooled), RMW chains, inserts, deletes, aborts, and an
// active major collector — small enough to sweep exhaustively.
//
// It is single-core on purpose: with one core the engine's epoch and
// recovery phases run sequentially, so the flush sequence — and therefore
// the crash state reached by fail-point N — is a pure function of the
// spec, making the exhaustive sweep and any minimized reproducer exactly
// replayable. Multi-core specs are still valid and every check still
// applies (any reachable crash prefix must recover correctly), but each
// fail-point then samples one scheduler interleaving instead of pinning
// a unique crash state; Report.Deterministic records which case ran.
func DefaultSpec() Spec {
	return Spec{
		Workload:     "kv",
		Cores:        1,
		Seed:         1,
		Rows:         48,
		WarmEpochs:   3,
		TxnsPerEpoch: 24,
		ValueBytes:   160,
		MinorGC:      true,
		ChaosDenom:   4,
	}
}

// Validate checks the spec for structural errors.
func (s Spec) Validate() error {
	switch s.Workload {
	case "kv":
	case "ycsb", "smallbank", "tpcc":
		if s.Aria {
			return fmt.Errorf("crashcheck: aria epochs are only supported for the kv workload, not %q", s.Workload)
		}
	default:
		return fmt.Errorf("crashcheck: unknown workload %q", s.Workload)
	}
	if s.Cores < 1 || s.Cores > 64 {
		return fmt.Errorf("crashcheck: cores %d out of range [1,64]", s.Cores)
	}
	minRows := 4
	switch s.Workload {
	case "ycsb":
		minRows = 16 // leaves room for a hot set below the total
	case "tpcc":
		minRows = 1 // rows means warehouses
	}
	if s.Rows < minRows || s.Rows > 1<<20 {
		return fmt.Errorf("crashcheck: rows %d out of range [%d,1M] for %s", s.Rows, minRows, s.Workload)
	}
	if s.WarmEpochs < 0 || s.WarmEpochs > 64 {
		return fmt.Errorf("crashcheck: warm epochs %d out of range [0,64]", s.WarmEpochs)
	}
	if s.TxnsPerEpoch < 1 || s.TxnsPerEpoch > 1<<16 {
		return fmt.Errorf("crashcheck: txns per epoch %d out of range [1,64K]", s.TxnsPerEpoch)
	}
	if s.ValueBytes < 0 || s.ValueBytes > 4096 {
		return fmt.Errorf("crashcheck: value bytes %d out of range [0,4096]", s.ValueBytes)
	}
	if s.ChaosDenom < 0 {
		return fmt.Errorf("crashcheck: negative chaos denominator")
	}
	return nil
}

// LoadSpec reads a JSON spec from a file.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("crashcheck: parse spec %s: %w", path, err)
	}
	return s, s.Validate()
}
