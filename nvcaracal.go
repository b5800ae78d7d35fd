// Package nvcaracal is a deterministic, epoch-based, multi-versioned
// database that integrates (simulated) non-volatile main memory with the
// dual-version checkpointing design of "Integrating Non-Volatile Main
// Memory in a Deterministic Database" (EuroSys 2023).
//
// The database batches one-shot transactions into epochs. Each epoch logs
// the transaction inputs to NVMM, performs all concurrency control in an
// initialization phase (pre-creating a sorted version array per written
// row), executes the transactions in parallel while respecting the
// predetermined serial order, and checkpoints by persisting only the FINAL
// write to each row — every intermediate version lives in a DRAM transient
// pool that is discarded at the epoch boundary. After a crash, the engine
// rebuilds its DRAM index from the persistent rows and deterministically
// replays the logged inputs of the interrupted epoch.
//
// Quick start:
//
//	db, err := nvcaracal.Open(nvcaracal.Config{})
//	...
//	txn := &nvcaracal.Txn{
//	    TypeID: myType,
//	    Input:  params,
//	    Ops:    []nvcaracal.Op{{Table: 1, Key: 42, Kind: nvcaracal.OpInsert}},
//	    Exec: func(ctx *nvcaracal.Ctx) {
//	        ctx.Insert(1, 42, []byte("hello"))
//	    },
//	}
//	res, err := db.RunEpoch([]*nvcaracal.Txn{txn})
//
// RunEpoch serves one hand-assembled batch at a time. To serve transactions
// from many goroutines, open a Submitter: it batches concurrent Submit calls
// into epochs (closing each at a size cap or latency deadline) and resolves
// every submission's future once its epoch is durable:
//
//	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{})
//	fut, err := s.Submit(txn) // safe from any goroutine
//	res := fut.Wait()         // epoch, SID, committed/aborted
//	s.Close()                 // flush queued work, stop the pipeline
//
// See the examples directory for runnable programs and internal/core for
// the engine itself.
package nvcaracal

import (
	"fmt"
	"runtime"
	"time"

	"nvcaracal/internal/core"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/prof"
)

// Re-exported engine types: the facade adds device management and sizing on
// top of internal/core.
type (
	// DB is a database instance.
	DB = core.DB
	// Txn is a one-shot deterministic transaction.
	Txn = core.Txn
	// Ctx is the transaction execution context.
	Ctx = core.Ctx
	// Op is a declared write-set operation.
	Op = core.Op
	// OpKind classifies a write-set operation.
	OpKind = core.OpKind
	// Registry maps logged transaction types to replay decoders.
	Registry = core.Registry
	// Decoder reconstructs a transaction from its logged input.
	Decoder = core.Decoder
	// EpochResult summarizes a completed epoch.
	EpochResult = core.EpochResult
	// RecoveryReport breaks down a recovery run.
	RecoveryReport = core.RecoveryReport
	// StorageMode selects the storage design (NVCaracal or a baseline).
	StorageMode = core.StorageMode
	// MemoryBreakdown reports DRAM/NVMM usage by structure.
	MemoryBreakdown = core.MemoryBreakdown
	// Device is the simulated NVMM device.
	Device = nvm.Device

	// AriaTxn is a deterministic transaction without a declared write set,
	// executed by RunEpochAria with Aria-style snapshot execution and
	// deterministic conflict detection (the paper's §7 integration target).
	AriaTxn = core.AriaTxn
	// AriaCtx is the Aria transaction execution context.
	AriaCtx = core.AriaCtx
	// AriaRegistry maps Aria transaction types to replay decoders.
	AriaRegistry = core.AriaRegistry
	// AriaResult summarizes an Aria epoch.
	AriaResult = core.AriaResult

	// Obs is the observability layer: latency histograms, an epoch-phase
	// tracer, and device-level instruments. Build one with NewObs and pass
	// it via Config.Obs; serve it with ObsHandler.
	Obs = obs.Obs
	// ObsConfig selects which instruments an Obs carries.
	ObsConfig = obs.Config
	// ObsHandler serves /debug/nvcaracal/stats, /debug/nvcaracal/trace,
	// and /debug/nvcaracal/attrib.
	ObsHandler = obs.Handler
	// WatchConfig arms the anomaly watchdog; set it on ObsConfig.Watch and
	// start it with Obs.StartWatch.
	WatchConfig = obs.WatchConfig
	// WatchTargets supplies the engine gauges the watchdog samples
	// (DB.Epoch and DB.DurableEpoch).
	WatchTargets = obs.WatchTargets
	// Watchdog is a running anomaly monitor returned by Obs.StartWatch.
	Watchdog = obs.Watchdog
	// Incident is one watchdog trigger with its evidence snapshot.
	Incident = obs.Incident

	// Profiler is the epoch-correlated profiling layer: phase-labelled
	// runtime/trace regions in the engine plus windowed CPU/trace captures.
	// Build one with NewProfiler, pass it via Config.Prof, serve it with
	// ProfHandler.
	Profiler = prof.Profiler
	// ProfConfig configures a Profiler (epoch gauge, contention-profiler
	// rates).
	ProfConfig = prof.Config
	// ProfHandler serves capture-on-demand profiles at
	// /debug/nvcaracal/pprof/*.
	ProfHandler = prof.Handler
)

// Write-set operation kinds.
const (
	OpUpdate = core.OpUpdate
	OpInsert = core.OpInsert
	OpDelete = core.OpDelete
)

// Storage modes (the paper's design plus its evaluation baselines).
const (
	ModeNVCaracal = core.ModeNVCaracal
	ModeNoLogging = core.ModeNoLogging
	ModeHybrid    = core.ModeHybrid
	ModeAllNVMM   = core.ModeAllNVMM
	ModeAllDRAM   = core.ModeAllDRAM
)

// NewRegistry returns an empty transaction-decoder registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// NewAriaRegistry returns an empty Aria transaction-decoder registry.
func NewAriaRegistry() *AriaRegistry { return core.NewAriaRegistry() }

// CrashMode selects how un-persisted lines behave across a simulated crash.
type CrashMode = nvm.CrashMode

// Crash modes for Device.Crash.
const (
	// CrashStrict drops every line not explicitly flushed and fenced.
	CrashStrict = nvm.CrashStrict
	// CrashRandom lets each non-durable line survive with 50% probability.
	CrashRandom = nvm.CrashRandom
	// CrashAll persists everything (eADR-style).
	CrashAll = nvm.CrashAll
)

// ErrInjectedCrash is the panic value raised when a Device fail-point
// (SetFailAfter) fires, simulating a power failure at an arbitrary persist
// boundary.
var ErrInjectedCrash = nvm.ErrInjectedCrash

// Config sizes and configures a database. The zero value gives a small
// DRAM-speed single-node instance suitable for examples and tests.
type Config struct {
	// Cores is the worker-core count (and per-core pool count). Default:
	// GOMAXPROCS.
	Cores int
	// Mode selects the storage design. Default ModeNVCaracal.
	Mode StorageMode

	// RowsPerCore / ValuesPerCore size the persistent pools. Defaults:
	// 1<<16 each.
	RowsPerCore   int64
	ValuesPerCore int64
	// RowSize is the fixed persistent-row size (multiple of 64; default
	// 256, the paper's default and Optane's internal access granularity).
	RowSize int64
	// ValueSize is the persistent value-slot size (default 1024).
	ValueSize int64
	// ValueSizes adds further value size classes, each with its own
	// per-core pool (§5.5's "one pool for each power of two size"
	// extension). Values are placed in the smallest class that fits.
	ValueSizes []int64
	// LogBytes sizes the input-log region (default 8 MiB).
	LogBytes int64
	// Counters is the number of persistent counter slots (default 64).
	Counters int64
	// ScratchPerCore sizes NVMM scratch for the baseline modes that store
	// transient data in NVMM; sized automatically when those modes are
	// selected.
	ScratchPerCore int64

	// CacheEnabled turns on DRAM cached versions (default true via
	// DefaultConfig; zero-value Config enables it too unless DisableCache).
	DisableCache bool
	// CacheK is the eviction horizon in epochs (default 20).
	CacheK int
	// CacheOnRead also caches rows on read misses (default true).
	DisableCacheOnRead bool
	// CacheHotOnly caches only rows the initialization phase identifies as
	// hot (the paper's §7 selective-caching extension).
	CacheHotOnly bool
	// DisableMinorGC turns the minor collector off (Figure 9 ablation).
	DisableMinorGC bool
	// RevertOnRecovery enables the TPC-C recovery variant.
	RevertOnRecovery bool
	// PersistIndex enables the persistent index journal (the paper's §7
	// extension): index deltas are batched to NVMM every epoch so recovery
	// replays the journal instead of scanning all persistent rows.
	PersistIndex bool
	// IndexJournalBytes sizes the journal region; auto-sized from the row
	// pools when zero and PersistIndex is set.
	IndexJournalBytes int64
	// Pipeline runs each epoch's commit (counters, pool staging, index
	// journal, checkpoint fence, epoch record) on a background committer
	// while the caller runs the next epoch: a depth-1 epoch pipeline.
	// DB.DurableEpoch lags the current epoch by at most one until
	// DB.WaitDurable. Below ~4 worker cores it can run SLOWER than inline
	// commits: the commit is short at that scale, and the committer's
	// device accesses contend with the next epoch's workers (see the 1-2
	// worker cells of BENCH_pipeline.json). Benchmark both settings at your
	// worker count before enabling.
	Pipeline bool

	// Registry supplies replay decoders; required for crash recovery.
	Registry *Registry
	// AriaRegistry supplies Aria replay decoders, required to recover a
	// crash during a RunEpochAria epoch.
	AriaRegistry *AriaRegistry

	// NVMMReadLatency / NVMMWriteLatency charge a busy-wait per cache line
	// accessed on the simulated device, reproducing the DRAM/NVMM gap.
	// Zero (default) runs at DRAM speed.
	NVMMReadLatency  time.Duration
	NVMMWriteLatency time.Duration
	// NVMMFenceLatency charges a drain per Fence — the persistence wait a
	// per-transaction-commit engine pays per transaction and an epoch-based
	// engine amortizes over the whole batch.
	NVMMFenceLatency time.Duration

	// Obs, when non-nil, attaches the observability layer: epoch/phase/txn
	// latency histograms and trace spans from the engine, and (when the Obs
	// was built with Device instrumentation) per-call device latency. Nil
	// costs a nil check per instrumentation site.
	Obs *Obs
	// Prof, when non-nil, attaches the profiling hooks: runtime/trace
	// regions plus pprof "phase" goroutine labels around every epoch phase,
	// and the engine's epoch gauge for windowed captures. Nil costs one
	// pointer check per phase.
	Prof *Profiler
}

func (c Config) layout(cores int) (pmem.Layout, error) {
	l := pmem.Layout{
		Cores:          cores,
		RowSize:        c.RowSize,
		RowsPerCore:    c.RowsPerCore,
		ValueSize:      c.ValueSize,
		ValueSizes:     c.ValueSizes,
		ValuesPerCore:  c.ValuesPerCore,
		LogBytes:       c.LogBytes,
		Counters:       c.Counters,
		ScratchPerCore: c.ScratchPerCore,
	}
	if l.RowSize == 0 {
		l.RowSize = 256
	}
	if l.RowsPerCore == 0 {
		l.RowsPerCore = 1 << 16
	}
	if l.ValueSize == 0 {
		l.ValueSize = 1024
	}
	if l.ValuesPerCore == 0 {
		l.ValuesPerCore = 1 << 16
	}
	if l.LogBytes == 0 {
		l.LogBytes = 8 << 20
	}
	if l.Counters == 0 {
		l.Counters = 64
	}
	if l.ScratchPerCore == 0 && (c.Mode == ModeHybrid || c.Mode == ModeAllNVMM) {
		l.ScratchPerCore = 64 << 20
	}
	if c.PersistIndex {
		l.IndexLogBytes = c.IndexJournalBytes
		if l.IndexLogBytes == 0 {
			// Room for a full snapshot (~21 B/row) plus generous delta churn.
			l.IndexLogBytes = l.RowsPerCore*int64(cores)*21*3 + (1 << 20)
		}
	}
	l.RingCap = 2*(l.RowsPerCore+l.ValuesPerCore) + 1024
	if err := l.Finalize(); err != nil {
		return pmem.Layout{}, err
	}
	return l, nil
}

func (c Config) coreOptions() (core.Options, error) {
	opts := core.Options{
		Cores:            c.Cores,
		Mode:             c.Mode,
		CacheEnabled:     !c.DisableCache,
		CacheK:           c.CacheK,
		CacheOnRead:      !c.DisableCacheOnRead,
		CacheHotOnly:     c.CacheHotOnly,
		MinorGCEnabled:   !c.DisableMinorGC,
		RevertOnRecovery: c.RevertOnRecovery,
		PersistIndex:     c.PersistIndex,
		Pipeline:         c.Pipeline,
		Registry:         c.Registry,
		AriaRegistry:     c.AriaRegistry,
		Obs:              c.Obs,
		Prof:             c.Prof,
	}
	if opts.Registry == nil && c.Mode == ModeNVCaracal {
		// Logging mode needs a registry for replay; give callers that never
		// crash a benign empty one.
		opts.Registry = core.NewRegistry()
	}
	if opts.Cores <= 0 {
		opts.Cores = runtime.GOMAXPROCS(0)
	}
	l, err := c.layout(opts.Cores)
	if err != nil {
		return core.Options{}, err
	}
	opts.Layout = l
	return opts, nil
}

func (c Config) deviceOptions() []nvm.Option {
	var opts []nvm.Option
	if c.NVMMReadLatency > 0 || c.NVMMWriteLatency > 0 {
		opts = append(opts, nvm.WithLatency(c.NVMMReadLatency, c.NVMMWriteLatency))
	}
	if c.NVMMFenceLatency > 0 {
		opts = append(opts, nvm.WithFenceLatency(c.NVMMFenceLatency))
	}
	if d := c.Obs.Device(); d != nil {
		opts = append(opts, nvm.WithObserver(d))
	}
	if a := c.Obs.Attrib(); a != nil {
		opts = append(opts, nvm.WithAttrib(a))
	}
	return opts
}

// NewObs builds an observability layer per the config. Pass the result via
// Config.Obs (Open wires the device instruments too) and expose it with
// NewObsHandler.
func NewObs(cfg ObsConfig) *Obs { return obs.New(cfg) }

// NewObsHandler returns an http.Handler serving o's introspection
// endpoints: /debug/nvcaracal/stats and /debug/nvcaracal/trace?epochs=N.
func NewObsHandler(o *Obs) *ObsHandler { return obs.NewHandler(o) }

// NewProfiler builds the profiling layer. Pass it via Config.Prof (Open
// wires the engine's epoch gauge) and serve captures with NewProfHandler.
func NewProfiler(cfg ProfConfig) *Profiler { return prof.New(cfg) }

// NewProfHandler returns an http.Handler serving p's capture-on-demand
// profiles; mount it at prof.PprofPath (/debug/nvcaracal/pprof/).
func NewProfHandler(p *Profiler) *ProfHandler { return prof.NewHandler(p) }

// Open creates a fresh database on a new simulated NVMM device sized for
// the configuration.
func Open(cfg Config) (*DB, error) {
	db, _, err := OpenWithDevice(cfg)
	return db, err
}

// OpenWithDevice is Open but also returns the underlying device, which
// tests and benchmarks use for access statistics and crash simulation.
func OpenWithDevice(cfg Config) (*DB, *Device, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, nil, err
	}
	dev := nvm.New(opts.Layout.TotalBytes(), cfg.deviceOptions()...)
	db, err := core.Open(dev, opts)
	if err != nil {
		return nil, nil, err
	}
	return db, dev, nil
}

// Recover attaches to a crashed device, repairs and replays per the paper's
// recovery protocol, and returns the recovered database. The configuration
// must match the one the device was formatted with.
func Recover(dev *Device, cfg Config) (*DB, *RecoveryReport, error) {
	opts, err := cfg.coreOptions()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Registry == nil && cfg.Mode == ModeNVCaracal {
		return nil, nil, fmt.Errorf("nvcaracal: recovery requires a Registry with the workload's decoders")
	}
	return core.Recover(dev, opts)
}

// PaperNVMMReadLatency and PaperNVMMWriteLatency reproduce the paper
// machine's measured DRAM:NVMM throughput gap (3.2x for random reads,
// 11.9x for random writes) at simulation scale. Pass them to Config to run
// benchmarks "on NVMM"; leave zero for DRAM speed.
const (
	PaperNVMMReadLatency  = 300 * time.Nanosecond
	PaperNVMMWriteLatency = 1200 * time.Nanosecond
)
