// Package core implements the paper's primary contribution: a deterministic,
// epoch-based, multi-versioned database engine with NVMM-backed dual-version
// checkpointing (NVCaracal).
//
// Transactions are batched into epochs. Each epoch runs an initialization
// phase (insert step, major GC, cache eviction, append step) that performs
// all concurrency control, followed by an execution phase that runs the
// transactions against pre-created version arrays. Only the final write to
// each row in an epoch is persisted to NVMM; every intermediate version
// lives in a DRAM transient pool that is discarded wholesale at the epoch
// boundary. Failure recovery replays the crashed epoch's logged inputs on
// top of the previous epoch's checkpoint, which the dual-version persistent
// rows provide in place.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"nvcaracal/internal/obs"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/prof"
)

// StorageMode selects where versions live and what is persisted, matching
// the designs compared in the paper's evaluation (Figures 7 and 10).
type StorageMode int

const (
	// ModeNVCaracal is the paper's design: input logging, transient
	// intermediate versions in DRAM, final write per row per epoch to NVMM,
	// dual-version checkpointing.
	ModeNVCaracal StorageMode = iota
	// ModeNoLogging is NVCaracal without input logging. It cannot recover
	// from failures; it isolates the logging overhead (Figure 10).
	ModeNoLogging
	// ModeHybrid keeps version arrays in DRAM but writes every update —
	// intermediate or final — to NVMM immediately, like Zen or WBL, and
	// omits the input log (Figure 7's "hybrid").
	ModeHybrid
	// ModeAllNVMM stores version arrays and all version values in NVMM and
	// disables the DRAM cache: the naive baseline (Figure 7's "all-NVMM").
	ModeAllNVMM
	// ModeAllDRAM is the NVCaracal code path without logging, intended to
	// be run against a zero-latency device: the all-DRAM upper bound
	// (Figure 10). It cannot recover from failures.
	ModeAllDRAM
)

func (m StorageMode) String() string {
	switch m {
	case ModeNVCaracal:
		return "nvcaracal"
	case ModeNoLogging:
		return "no-logging"
	case ModeHybrid:
		return "hybrid"
	case ModeAllNVMM:
		return "all-nvmm"
	case ModeAllDRAM:
		return "all-dram"
	default:
		return fmt.Sprintf("StorageMode(%d)", int(m))
	}
}

// logs reports whether the mode persists an input log each epoch.
func (m StorageMode) logs() bool { return m == ModeNVCaracal }

// persistsIntermediates reports whether every version write goes to NVMM.
func (m StorageMode) persistsIntermediates() bool {
	return m == ModeHybrid || m == ModeAllNVMM
}

// caches reports whether the DRAM cached-version optimization applies.
func (m StorageMode) caches() bool { return m != ModeAllNVMM }

// Options configures a DB.
type Options struct {
	// Cores is the number of worker cores (and per-core pools). Defaults to
	// GOMAXPROCS.
	Cores int
	// Mode selects the storage design. Default ModeNVCaracal.
	Mode StorageMode
	// Layout describes the NVMM region. Zero value selects a default layout
	// sized by pmem.DefaultLayout for 1<<16 rows and values per core.
	Layout pmem.Layout
	// CacheEnabled turns on DRAM cached versions (paper §4.2). ModeAllNVMM
	// forces it off.
	CacheEnabled bool
	// CacheK is the eviction horizon: cached versions not accessed in the
	// last K epochs are evicted. Paper default 20.
	CacheK int
	// CacheOnRead creates a cached version when a read misses the cache and
	// falls through to NVMM, keeping hot read-only rows in DRAM.
	CacheOnRead bool
	// CacheHotOnly implements the paper's §7 caching extension: final
	// writes create a cached version only for rows identified as hot from
	// the epoch's write-set information — rows written more than once this
	// epoch, or rows that were already cached. Cold single-write rows skip
	// the cached-version cost that Figure 9 shows can be a net loss.
	CacheHotOnly bool
	// MinorGCEnabled enables the minor collector for rows whose stale
	// version is inline (paper §4.4/§5.3). When off, every collected row
	// goes through the major collector, as in the Figure 9 ablation.
	MinorGCEnabled bool
	// RevertOnRecovery enables the TPC-C recovery variant (paper §6.2.3):
	// persistent versions written by the crashed epoch are reverted during
	// the recovery scan because replay may write them under different keys.
	RevertOnRecovery bool
	// PersistIndex enables the persistent index journal (paper §7 future
	// work): index deltas are batched to NVMM at every epoch checkpoint so
	// recovery replays the journal instead of scanning every persistent
	// row. Requires Layout.IndexLogBytes > 0 and a logging mode. The
	// journal is strictly an accelerator: any validation failure falls
	// back to the scan.
	PersistIndex bool
	// Pipeline runs each epoch's commit — counters, per-core pool staging,
	// index journal, checkpoint fence, epoch record — on a background
	// committer while the next RunEpoch logs, inits and executes: a depth-1
	// epoch pipeline. The next epoch's init workers wait only for their own
	// core's pool staging (the staging token); its init fence waits for the
	// whole commit, since rows are dual-version and no row write may land
	// before the previous epoch's record is durable. RunEpoch then returns
	// before the epoch is durable: call WaitDurable before snapshotting the
	// device. Replay always commits inline. Default off: the same commit
	// runs inline at the end of RunEpoch.
	Pipeline bool
	// Registry maps logged transaction type ids to decoders, required for
	// recovery replay when Mode logs.
	Registry *Registry
	// AriaRegistry maps Aria transaction type ids to decoders; required to
	// recover a crash during an Aria-flavoured epoch (RunEpochAria).
	AriaRegistry *AriaRegistry
	// Obs, when non-nil, receives epoch/phase/transaction latency
	// observations and trace spans. Nil (the default) leaves only nil-check
	// stubs on the hot paths; see internal/obs.
	Obs *obs.Obs
	// Prof, when non-nil, attaches the profiling hooks: every epoch phase
	// runs under a runtime/trace region plus a pprof "phase" goroutine
	// label, and the profiler's epoch-windowed captures read this engine's
	// epoch gauge. Nil (the default) costs one pointer check per phase; see
	// internal/prof.
	Prof *prof.Profiler
}

func (o *Options) applyDefaults() {
	if o.Cores <= 0 {
		o.Cores = runtime.GOMAXPROCS(0)
	}
	if o.CacheK <= 0 {
		o.CacheK = 20
	}
	if o.Layout.Cores == 0 {
		o.Layout = pmem.DefaultLayout(o.Cores, 1<<16, 1<<16)
	}
	if o.Mode == ModeAllNVMM {
		o.CacheEnabled = false
	}
}

func (o *Options) validate() error {
	if o.Layout.Cores != o.Cores {
		return fmt.Errorf("core: layout is for %d cores, options say %d", o.Layout.Cores, o.Cores)
	}
	if o.Mode.logs() && o.Registry == nil {
		return errors.New("core: logging mode requires a transaction Registry for replay")
	}
	if o.PersistIndex {
		if o.Layout.IndexLogBytes == 0 {
			return errors.New("core: PersistIndex requires Layout.IndexLogBytes > 0")
		}
		if !o.Mode.logs() {
			return errors.New("core: PersistIndex requires a logging mode")
		}
	}
	if o.Mode.persistsIntermediates() {
		// Intermediate versions land in the per-core NVMM scratch ring; any
		// value the engine accepts (up to the largest value class) must fit,
		// or scratchAlloc would have to overrun the core's region.
		if o.Layout.ScratchPerCore <= 0 {
			return fmt.Errorf("core: mode %v requires Layout.ScratchPerCore > 0", o.Mode)
		}
		if max := o.Layout.MaxValueSize(); max > 0 && o.Layout.ScratchPerCore < max {
			return fmt.Errorf("core: Layout.ScratchPerCore %d cannot hold the largest value class %d",
				o.Layout.ScratchPerCore, max)
		}
	}
	return nil
}

// epochBits is the shift separating the epoch from the intra-epoch serial
// number within a SID. Epochs are strictly ordered; serial numbers order
// transactions within an epoch.
const epochBits = 24

// MakeSID composes a serial id from an epoch and a 1-based serial number.
func MakeSID(epoch uint64, serial uint64) uint64 { return epoch<<epochBits | serial }

// SIDEpoch extracts the epoch from a serial id.
func SIDEpoch(sid uint64) uint64 { return sid >> epochBits }

// MaxTxnsPerEpoch is the largest batch RunEpoch and RunEpochAria accept:
// serial numbers are 1-based and occupy the low epochBits of a SID, so a
// larger batch would overflow the serial field into the epoch bits and
// collide SIDs silently.
const MaxTxnsPerEpoch = 1<<epochBits - 1

// CheckBatchSize validates that an n-transaction batch fits in one epoch.
// Both epoch flavours apply it before assigning SIDs; batching front-ends
// use it to size batches (including any resubmitted conflict losers).
func CheckBatchSize(n int) error {
	if n > MaxTxnsPerEpoch {
		return fmt.Errorf("core: batch of %d exceeds max %d txns per epoch", n, MaxTxnsPerEpoch)
	}
	return nil
}
