// Package obs is the engine's observability layer: striped lock-free
// latency histograms, an epoch-phase span tracer exportable as Chrome
// trace_event JSON, device-level latency observability for internal/nvm,
// and an HTTP serving surface (/debug/nvcaracal/...).
//
// The layer is compiled in but off by default. Every recording entry point
// is nil-safe — a nil *Obs, *Hist, *Tracer, or *DeviceObs no-ops in a few
// nanoseconds — so the engine carries the instrumentation unconditionally
// and hosts opt in by passing an *Obs through core.Options / the facade
// Config. The paper's analysis is entirely about where epoch time goes
// (init vs execution vs persistence fences vs GC); this package is how the
// repo answers that question for its own numbers.
package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Config selects which instruments an Obs carries. The zero value enables
// nothing; New(Config{}) still returns a usable (all-disabled) Obs.
type Config struct {
	// Hists enables the transaction-execution, epoch end-to-end, and
	// per-phase latency histograms.
	Hists bool
	// Trace enables the epoch-phase span tracer.
	Trace bool
	// TraceSpansPerCore caps each per-core span ring (default 4096).
	TraceSpansPerCore int
	// Device enables device-level latency histograms (the fence histogram's
	// sum is the fence-stall total); wire the result to the device with
	// nvm.WithObserver.
	Device bool
	// Attrib enables NVMM access attribution (the device's per-cause
	// counts, a DefaultHeatBuckets spatial heatmap, write-amplification
	// accounting); wire the result to the device with nvm.WithAttrib.
	Attrib bool
	// TxnTrace enables sampled per-transaction lifecycle tracing.
	TxnTrace bool
	// TxnSampleEvery traces 1-in-N transactions (default
	// DefaultTxnSampleEvery; 1 traces everything).
	TxnSampleEvery int
	// FlightPerStripe caps each flight-recorder stripe (default 2048). The
	// flight recorder itself is always on: any Obs carries one.
	FlightPerStripe int
	// Watch arms the anomaly watchdog once a host calls StartWatch; nil
	// (the default) leaves it off.
	Watch *WatchConfig
	// Cores sizes the tracer's ring set (default GOMAXPROCS).
	Cores int
}

// MaxDurableLag bounds the durable-lag distribution: lags of MaxDurableLag
// or more epochs fold into the last bucket. A depth-1 pipeline never lags
// more than one epoch, so anything beyond is itself a finding.
const MaxDurableLag = 4

// Obs bundles the instruments of one engine instance.
type Obs struct {
	// startNS is the uptime-clock origin in UnixNano; atomic because Reset
	// (bench harnesses discarding a load phase) races live /stats and
	// /metrics scrapes.
	startNS atomic.Int64
	txn     *Hist // per-transaction execution latency
	epoch   *Hist // epoch end-to-end latency
	phases  [NumPhases]*Hist
	tracer  *Tracer
	dev     *DeviceObs
	attrib  *Attrib

	// flight is the always-on event recorder; txns the sampled lifecycle
	// tracer (nil unless Config.TxnTrace); watchCfg the armed-but-idle
	// watchdog configuration consumed by StartWatch.
	flight   *Flight
	txns     *TxnTrace
	watchCfg *WatchConfig

	// durableLag counts completed epochs by Epoch()−DurableEpoch() at
	// completion time: bucket 0 when the commit retired in line, bucket 1
	// while a pipelined commit was still in flight.
	durableLag [MaxDurableLag]atomic.Uint64
	lagOn      bool
}

// New builds an Obs per the config.
func New(cfg Config) *Obs {
	if cfg.Cores <= 0 {
		cfg.Cores = runtime.GOMAXPROCS(0)
	}
	o := &Obs{}
	o.startNS.Store(time.Now().UnixNano())
	if cfg.Hists {
		o.txn = NewHist()
		o.epoch = NewHist()
		for i := range o.phases {
			o.phases[i] = NewHist()
		}
		o.lagOn = true
	}
	if cfg.Trace {
		o.tracer = NewTracer(cfg.Cores, cfg.TraceSpansPerCore)
	}
	if cfg.Device {
		o.dev = NewDeviceObs(true)
	}
	if cfg.Attrib {
		o.attrib = NewAttrib(DefaultHeatBuckets)
	}
	o.flight = NewFlight(cfg.FlightPerStripe)
	if cfg.TxnTrace {
		o.txns = NewTxnTrace(cfg.Cores, cfg.TxnSampleEvery, 0)
	}
	o.watchCfg = cfg.Watch
	return o
}

// Flight returns the flight recorder (nil only when o is nil: every built
// Obs carries one).
func (o *Obs) Flight() *Flight {
	if o == nil {
		return nil
	}
	return o.flight
}

// TxnTrace returns the sampled transaction lifecycle tracer (nil when txn
// tracing is off or o is nil).
func (o *Obs) TxnTrace() *TxnTrace {
	if o == nil {
		return nil
	}
	return o.txns
}

// On reports whether any instrumentation is attached. The nil receiver
// returns false; engine hot paths gate their time.Now() calls on it.
func (o *Obs) On() bool { return o != nil }

// Device returns the device observer, or nil when device observability is
// off (or o is nil). Pass it to nvm.WithObserver.
func (o *Obs) Device() *DeviceObs {
	if o == nil {
		return nil
	}
	return o.dev
}

// Tracer returns the span tracer (nil when tracing is off or o is nil).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// TxnTimed reports whether per-transaction latency is being recorded, so
// the execution loop only pays for time.Now() when it is.
func (o *Obs) TxnTimed() bool { return o != nil && o.txn != nil }

// ObserveTxn records one transaction's execution latency from its worker
// core.
func (o *Obs) ObserveTxn(core int, d time.Duration) {
	if o == nil {
		return
	}
	o.txn.ObserveCore(core, d)
}

// Span records one completed phase interval ending now: a tracer span plus
// the phase's histogram. Nil-safe.
func (o *Obs) Span(core int, epoch uint64, phase Phase, start time.Time) {
	if o == nil {
		return
	}
	o.spanAt(core, epoch, phase, start, time.Since(start))
}

// SpanAt records a phase interval with an explicit duration, for callers
// that already timed the interval (recovery stages, replayed epochs).
func (o *Obs) SpanAt(core int, epoch uint64, phase Phase, start time.Time, dur time.Duration) {
	if o == nil {
		return
	}
	o.spanAt(core, epoch, phase, start, dur)
}

func (o *Obs) spanAt(core int, epoch uint64, phase Phase, start time.Time, dur time.Duration) {
	o.tracer.Record(core, epoch, phase, start, dur)
	if h := o.phases[phase]; h != nil {
		if core >= 0 {
			h.ObserveCore(core, dur)
		} else {
			h.Observe(dur)
		}
	}
}

// RecordEpoch records one completed epoch from the coordinator: four
// consecutive phase spans (log, init, execute, persist) starting at start,
// the per-phase histograms, and the epoch end-to-end histogram. The engine
// already times each phase for EpochResult, so this call adds no clock
// reads to the epoch path.
func (o *Obs) RecordEpoch(epoch uint64, start time.Time, log, init, exec, persist time.Duration) {
	if o == nil {
		return
	}
	t := start
	for _, p := range []struct {
		phase Phase
		dur   time.Duration
	}{{PhaseLog, log}, {PhaseInit, init}, {PhaseExec, exec}, {PhasePersist, persist}} {
		o.spanAt(CoordinatorCore, epoch, p.phase, t, p.dur)
		t = t.Add(p.dur)
	}
	o.epoch.Observe(log + init + exec + persist)
}

// RecordCommit records one retired background commit stage — a committer
// span plus the commit-phase histogram. Safe to call from the committer
// goroutine concurrently with the coordinator's RecordEpoch.
func (o *Obs) RecordCommit(epoch uint64, start time.Time, dur time.Duration) {
	if o == nil {
		return
	}
	o.spanAt(CoordinatorCore, epoch, PhaseCommit, start, dur)
}

// ObserveDurableLag records one completed epoch's durable lag — the
// engine's Epoch()−DurableEpoch() sampled right after the epoch completed.
func (o *Obs) ObserveDurableLag(lag uint64) {
	if o == nil || !o.lagOn {
		return
	}
	if lag >= MaxDurableLag {
		lag = MaxDurableLag - 1
	}
	o.durableLag[lag].Add(1)
}

// DurableLagCounts returns the durable-lag distribution: index i counts
// epochs that completed with a lag of i (the last bucket folds overflows).
func (o *Obs) DurableLagCounts() [MaxDurableLag]uint64 {
	var c [MaxDurableLag]uint64
	if o == nil {
		return c
	}
	for i := range c {
		c[i] = o.durableLag[i].Load()
	}
	return c
}

// Reset clears every attached instrument and restarts the uptime clock.
// Hosts use it to discard a data-loading phase before a measured run
// (internal/bench's obs report). Racing recorders are tolerated, not
// synchronized — see Hist.Reset.
func (o *Obs) Reset() {
	if o == nil {
		return
	}
	o.startNS.Store(time.Now().UnixNano())
	o.txn.Reset()
	o.epoch.Reset()
	for _, h := range o.phases {
		h.Reset()
	}
	for i := range o.durableLag {
		o.durableLag[i].Store(0)
	}
	o.tracer.Reset()
	o.dev.Reset()
	o.attrib.Reset()
	o.flight.Reset()
	o.txns.Reset()
}

// PhaseSnapshot returns the folded histogram of one phase.
func (o *Obs) PhaseSnapshot(p Phase) HistSnapshot {
	if o == nil {
		return HistSnapshot{}
	}
	return o.phases[p].Snapshot()
}

// TxnSnapshot returns the folded transaction-latency histogram.
func (o *Obs) TxnSnapshot() HistSnapshot {
	if o == nil {
		return HistSnapshot{}
	}
	return o.txn.Snapshot()
}

// EpochSnapshot returns the folded epoch end-to-end histogram.
func (o *Obs) EpochSnapshot() HistSnapshot {
	if o == nil {
		return HistSnapshot{}
	}
	return o.epoch.Snapshot()
}
