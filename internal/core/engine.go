package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvcaracal/internal/arena"
	"nvcaracal/internal/index"
	"nvcaracal/internal/metrics"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/wal"
)

// DB is a deterministic database instance bound to one NVMM device.
//
// All epoch processing goes through RunEpoch, which is not safe for
// concurrent calls: the engine parallelizes internally across its worker
// cores. Out-of-band reads (Get) are safe only between epochs.
type DB struct {
	dev    *nvm.Device
	opts   Options
	layout pmem.Layout

	rowPools []*pmem.Pool
	// valPools is indexed [size class][core] (§5.5's multi-pool extension;
	// a single class by default).
	valPools [][]*pmem.Pool
	log      *wal.Log
	epochRec *pmem.EpochRecord
	idx      *index.Map[*rowState]
	arenas   *arena.Group

	// epoch is the last completed (checkpointed) epoch. Epoch processing
	// itself is single-threaded (one RunEpoch/RunEpochAria at a time), but
	// concurrent front-ends read Epoch() while an epoch runs, so the
	// counter is atomic.
	epoch atomic.Uint64

	// counters mirrors the persistent counter slots in DRAM; flushed at
	// every checkpoint (TPC-C order ids, §6.2.3).
	counters []atomic.Uint64

	// scratch bump offsets per core for NVMM-resident transient values
	// (ModeHybrid / ModeAllNVMM), reset every epoch.
	scratch []int64

	// gcPending collects rows whose stale first version needs the major
	// collector, appended per worker during execution, drained at the next
	// epoch's initialization.
	gcPending [][]*rowState

	// evictRing and evictBuf implement the epoch-based LRU (§5.2):
	// per-worker buffers collect rows whose cached version was created this
	// epoch; at the epoch boundary they merge into the ring slot for the
	// epoch, and the init phase processes the slot of epoch-K-1.
	evictRing [][]*rowState
	evictBuf  [][]*rowState

	// deferredIndexDeletes holds rows deleted this epoch, per worker;
	// removing them from the index is deferred to the epoch boundary so
	// concurrent readers with smaller serial ids still resolve the row.
	deferredIndexDeletes [][]index.Key

	// idxLog is the optional persistent index journal (§7 extension);
	// idxPuts collects the rows created this epoch, per owner core, for
	// the journal's delta block.
	idxLog  *pmem.IndexLog
	idxPuts [][]pmem.IndexEntry

	// replay state: set while recovering the crashed epoch.
	replaying bool
	skipEpoch uint64 // persistent versions of this epoch are ignored by reads
	gcDupSet  map[int64]struct{}
	scanMu    sync.Mutex // guards RecoveryReport aggregation during the scan

	met metrics.Counters

	// obs receives phase spans and latency observations; nil (the default)
	// reduces every instrumentation site to a nil check.
	obs *obs.Obs

	// gate parks workers waiting on pending version-array slots; a
	// panicking worker unwinds it so the epoch unwinds instead of hanging.
	gate waitGate

	// Committer state. durableEpoch is the last epoch whose record is
	// durable. Under Options.Pipeline persistWG tracks the in-flight
	// committer of the previous epoch and persistPanic carries a panic (e.g.
	// an injected crash) out of it to the next barrier; outside the pipeline
	// the commit runs inline and a panic unwinds RunEpoch directly.
	persistWG    sync.WaitGroup
	persistPanic atomic.Pointer[any]
	durableEpoch atomic.Uint64

	// Pipeline state (Options.Pipeline): commitTokens[c] is closed once the
	// in-flight committer has finished staging core c's pools, letting epoch
	// N+1's init workers reopen them per core instead of joining the whole
	// commit. Written only by the epoch coordinator between epochs (the
	// spawn of the worker goroutines orders the write before their reads)
	// and never cleared: a retired commit leaves closed channels behind, so
	// the steady-state wait is one closed-channel receive. commitDur is the
	// duration of the most recently retired commit stage, reported through
	// EpochResult.CommitTime.
	commitTokens []chan struct{}
	commitDur    atomic.Int64

	logBytesTotal int64 // cumulative input-log bytes for accounting
}

// errEpochUnwound is the secondary panic raised by workers that were
// waiting when a sibling worker panicked; parallel() reports the sibling's
// original panic, not this one.
var errEpochUnwound = fmt.Errorf("core: epoch unwound after sibling worker panic")

// initWork is one declared write-set op routed to its owner core.
type initWork struct {
	key  index.Key
	sid  uint64
	kind OpKind
}

// Open formats a fresh device and returns a DB. Use Recover to attach to a
// device that already holds data.
func Open(dev *nvm.Device, opts Options) (*DB, error) {
	opts.applyDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Teach the attribution layer the layout's named regions before any
	// traffic (Format is the first) so the spatial breakdown is complete.
	opts.Obs.Attrib().SetRegions(opts.Layout.Regions())
	if err := pmem.Format(dev, opts.Layout); err != nil {
		return nil, err
	}
	return newDB(dev, opts), nil
}

func newDB(dev *nvm.Device, opts Options) *DB {
	c := opts.Cores
	db := &DB{
		dev:       dev,
		opts:      opts,
		layout:    opts.Layout,
		rowPools:  make([]*pmem.Pool, c),
		idx:       index.New[*rowState](c * 16),
		arenas:    arena.NewGroup(c),
		counters:  make([]atomic.Uint64, opts.Layout.Counters),
		scratch:   make([]int64, c),
		gcPending: make([][]*rowState, c),
		evictRing: make([][]*rowState, opts.CacheK+2),
		evictBuf:  make([][]*rowState, c),

		deferredIndexDeletes: make([][]index.Key, c),

		obs: opts.Obs,
	}
	for i := 0; i < c; i++ {
		db.rowPools[i] = pmem.RowPool(dev, opts.Layout, i)
	}
	classes := opts.Layout.ValueClasses()
	db.valPools = make([][]*pmem.Pool, len(classes))
	for k := range classes {
		db.valPools[k] = make([]*pmem.Pool, c)
		for i := 0; i < c; i++ {
			db.valPools[k][i] = pmem.ValuePool(dev, opts.Layout, k, i)
		}
	}
	db.log = wal.New(dev, opts.Layout.LogOff(), opts.Layout.LogCap())
	db.epochRec = pmem.NewEpochRecord(dev, opts.Layout)
	if opts.PersistIndex {
		db.idxLog = pmem.NewIndexLog(dev, opts.Layout)
		db.idxPuts = make([][]pmem.IndexEntry, c)
	}
	// Epoch-windowed profile captures ("profile the next N epochs") read the
	// engine's completed-epoch gauge.
	opts.Prof.SetEpochSource(db.Epoch)
	return db
}

// Cores returns the configured worker-core count.
func (db *DB) Cores() int { return db.opts.Cores }

// Epoch returns the last checkpointed epoch number. It is safe to call
// concurrently with a running epoch.
func (db *DB) Epoch() uint64 { return db.epoch.Load() }

// Mode returns the storage mode.
func (db *DB) Mode() StorageMode { return db.opts.Mode }

// Device returns the underlying NVMM device (for stats and crash tests).
func (db *DB) Device() *nvm.Device { return db.dev }

// Metrics returns a snapshot of the engine counters.
func (db *DB) Metrics() metrics.Snapshot { return db.met.Snapshot() }

// Obs returns the attached observability layer (nil when none). Front-ends
// (internal/submit) use it to stamp txn lifecycle spans and record flight
// events of their own.
func (db *DB) Obs() *obs.Obs { return db.obs }

// RowCount returns the number of live rows in the index.
func (db *DB) RowCount() int { return db.idx.Len() }

// CounterAdd atomically adds delta to persistent counter slot i and returns
// the previous value. Counters are persisted at every epoch checkpoint and
// recovered after a crash.
func (db *DB) CounterAdd(i int, delta uint64) uint64 {
	return db.counters[i].Add(delta) - delta
}

// CounterGet returns the current value of persistent counter slot i.
func (db *DB) CounterGet(i int) uint64 { return db.counters[i].Load() }

// EpochResult summarizes one completed epoch.
type EpochResult struct {
	Epoch     uint64
	Committed int
	Aborted   int
	// Durations of the epoch's stages. SyncTime is the caller-side part of
	// the persist phase; CommitTime is commitEpoch. Under Options.Pipeline
	// the commit runs in the background, so CommitTime reports the most
	// recently *retired* commit — trailing the epoch by one — which keeps
	// Total() an honest account of work performed.
	LogTime    time.Duration
	InitTime   time.Duration
	ExecTime   time.Duration
	SyncTime   time.Duration
	CommitTime time.Duration
}

// Total returns the wall-clock total of the epoch stages. Under the
// pipeline the commit stage overlaps the next epoch, so
// Total() can exceed the epoch's critical-path latency — it measures work,
// not wall clock between RunEpoch calls.
func (r EpochResult) Total() time.Duration {
	return r.LogTime + r.InitTime + r.ExecTime + r.SyncTime + r.CommitTime
}

// RunEpoch processes one batch of transactions as an epoch: logs the
// inputs, runs the initialization phase (insert step, major GC, cache
// eviction, append step), executes the transactions, and checkpoints
// (Algorithm 1 of the paper). On return the epoch is durable (in logging
// mode) and all its writes are visible to subsequent epochs.
func (db *DB) RunEpoch(batch []*Txn) (EpochResult, error) {
	if err := CheckBatchSize(len(batch)); err != nil {
		return EpochResult{}, err
	}
	// Outside the pipeline the previous epoch committed inline. Under it the
	// log has dual epoch-parity slots and the pools hand out per-core staging
	// tokens, so entry only surfaces a committer that died; the real join is
	// the commit barrier before this epoch's init fence.
	db.raisePersistPanic()
	epoch := db.epoch.Load() + 1
	res := EpochResult{Epoch: epoch}
	ptask := db.opts.Prof.EpochTask(epoch)
	defer ptask.End()
	db.gate.reset()
	db.obs.Flight().Record(obs.EvEpochStart, obs.CoordinatorCore, epoch, int64(len(batch)), 0)

	// Assign serial ids in batch order: the predetermined serial order.
	// Transactions that arrived without a lifecycle span (hand-batched
	// loads that bypassed internal/submit) are sampled here, so every entry
	// path produces a tail-latency breakdown; replay re-runs old inputs and
	// is never sampled.
	tt := db.obs.TxnTrace()
	var spans []*obs.TxnSpan
	for i, t := range batch {
		t.sid = MakeSID(epoch, uint64(i+1))
		t.aborted = false
		if t.span == nil && !t.spanConsidered && tt != nil && !db.replaying {
			t.span = tt.Sample()
		}
		if t.span != nil {
			t.span.MarkAssign(epoch, t.sid)
			spans = append(spans, t.span)
		}
	}

	// Log transaction inputs: serialized and flushed here, made durable by
	// the single initialization fence below, before any execution-phase
	// write becomes visible (§4.3).
	t0 := time.Now()
	endPhase := db.opts.Prof.Region(obs.PhaseLog.String())
	logged := false
	if db.opts.Mode.logs() && !db.replaying {
		recs := make([]wal.Record, len(batch))
		for i, t := range batch {
			recs[i] = wal.Record{Type: t.TypeID, Data: t.Input}
		}
		if err := db.log.WriteEpochNoFence(epoch, recs); err != nil {
			endPhase()
			return res, err
		}
		logged = true
		db.logBytesTotal += db.log.LastPayloadBytes()
	}
	endPhase()
	res.LogTime = time.Since(t0)

	// Initialization phase. The init workers (insertStep, appendStep) are
	// spawned from this goroutine and inherit its "init" pprof label.
	t1 := time.Now()
	endPhase = db.opts.Prof.Region(obs.PhaseInit.String())
	work := db.gatherWork(batch)
	if err := db.insertStep(epoch, work); err != nil {
		endPhase()
		return res, err
	}
	gc := db.majorGCBegin(epoch)
	// Commit join: persistent rows are dual-version (older/newer), not
	// epoch-parity, so no row write of this epoch — GC phase 2 rewrites or
	// execution finals — may land before the previous epoch's record is
	// durable; a crash would otherwise replay on top of half-new state. The
	// join also keeps this epoch's init fence from committing the previous
	// commit's staged lines early. A no-op outside the pipeline, where the
	// previous epoch committed inline.
	db.WaitDurable()
	db.initFence(epoch, logged, gc.pending)
	db.majorGCFinish(epoch, gc)
	db.evictCache(epoch)
	db.appendStep(epoch, work)
	endPhase()
	res.InitTime = time.Since(t1)

	// Execution phase.
	t2 := time.Now()
	endPhase = db.opts.Prof.Region(obs.PhaseExec.String())
	db.executePhase(epoch, batch)
	endPhase()
	res.ExecTime = time.Since(t2)

	// Checkpoint: fence all epoch writes, persist the epoch number, fence
	// again (inside Store), then release transient state.
	t3 := time.Now()
	endPhase = db.opts.Prof.Region(obs.PhasePersist.String())
	db.checkpointEpoch(epoch, spans)
	db.finishEpoch(epoch, batch, &res)
	endPhase()
	persist := time.Since(t3)
	res.CommitTime = time.Duration(db.commitDur.Load())
	res.SyncTime = persist
	if !db.opts.Pipeline || db.replaying {
		// The commit ran inline, inside the persist span. In the background
		// SyncTime is the caller-side handoff only, and CommitTime reports
		// the last retired commit.
		res.SyncTime -= res.CommitTime
	}

	db.epoch.Store(epoch)
	db.met.Coordinator().AddEpoch()
	db.obs.ObserveDurableLag(epoch - db.durableEpoch.Load())
	// The phase durations are already in hand for EpochResult, so recording
	// them adds no clock reads to the epoch path. Under the pipeline the
	// committer records its own PhaseCommit span; inline the commit stays
	// inside the persist span.
	db.obs.RecordEpoch(epoch, t0, res.LogTime, res.InitTime, res.ExecTime, persist)
	db.obs.Attrib().EpochEnd(epoch)
	// The epoch-end event carries the critical-path duration (excluding any
	// overlapped commit); the watchdog's outlier detector feeds on it.
	db.obs.Flight().Record(obs.EvEpochEnd, obs.CoordinatorCore, epoch,
		int64(res.LogTime+res.InitTime+res.ExecTime+res.SyncTime), int64(res.Committed))
	return res, nil
}

// initFence issues the epoch's single initialization fence: one ordering
// point committing the input log and the major collector's free-ring
// entries together, before GC phase 2 or the execution phase overwrites
// anything they cover. The insert step's row headers are stored without a
// write-back; each row's final write (or drop) writes its header line back
// before the checkpoint fence. Replacing the per-source
// fences (log, GC ring, GC tail) with this one barrier is the fence diet's
// init-phase half; the fence is attributed to the cause that required it.
// When neither the log nor the collector wrote anything, nothing downstream
// consumes an ordering guarantee and the fence is skipped entirely.
func (db *DB) initFence(epoch uint64, logged, gcPending bool) {
	switch {
	case logged:
		db.obs.Flight().Record(obs.EvFence, obs.CoordinatorCore, epoch, int64(obs.CauseWALAppend), 0)
		db.dev.Tag(obs.CauseWALAppend).Fence()
	case gcPending:
		db.obs.Flight().Record(obs.EvFence, obs.CoordinatorCore, epoch, int64(obs.CauseMajorGC), 0)
		db.dev.Tag(obs.CauseMajorGC).Fence()
	}
}

// checkpointEpoch commits the epoch. It first captures the state the next
// epoch consumes or mutates: the counter values (the caller may CounterAdd
// between epochs), the index-journal delta entries (collectIndexEntries),
// and, when the delta does not fit, the compaction itself — it walks the
// live index — with the journal checkpoint. commitEpoch does the rest:
// inline (depth 0) outside the pipeline and during replay, or on a
// background committer (depth 1) under Options.Pipeline, which the next
// epoch's pre-init-fence WaitDurable retires.
func (db *DB) checkpointEpoch(epoch uint64, spans []*obs.TxnSpan) {
	counterVals := make([]uint64, len(db.counters))
	for i := range db.counters {
		counterVals[i] = db.counters[i].Load()
	}
	var idxEntries []pmem.IndexEntry
	idxAppend := false
	if db.idxLog != nil {
		idxEntries = db.collectIndexEntries()
		if db.idxLog.Fits(len(idxEntries)) {
			idxAppend = true
		} else {
			db.compactIndexJournal(epoch)
			db.idxLog.Checkpoint(epoch)
		}
	}
	tokens := make([]chan struct{}, db.opts.Cores)
	for c := range tokens {
		tokens[c] = make(chan struct{})
	}
	commit := func() { db.commitEpoch(epoch, tokens, counterVals, idxEntries, idxAppend, spans) }
	if !db.opts.Pipeline || db.replaying {
		commit()
		return
	}
	db.commitTokens = tokens
	db.persistWG.Add(1)
	db.obs.Flight().Record(obs.EvCommitHandoff, obs.CoordinatorCore, epoch, 0, 0)
	go func() {
		start := time.Now()
		defer db.persistWG.Done()
		defer func() {
			if r := recover(); r != nil {
				v := r
				db.persistPanic.CompareAndSwap(nil, &v)
				db.obs.Flight().DumpOnCrash(fmt.Sprintf("committer of epoch %d: %v", epoch, r))
			}
		}()
		// Relabel the committer (and, by inheritance, its per-core staging
		// goroutines) as the commit phase.
		defer db.opts.Prof.Region(obs.PhaseCommit.String())()
		commit()
		db.obs.RecordCommit(epoch, start, time.Duration(db.commitDur.Load()))
	}()
}

// commitEpoch is the only code that issues the checkpoint fence and the
// epoch record. It stages counter parity slots, then each core's pools on a
// goroutine per core (closing the core's staging token, so a pipelined next
// epoch resumes per core), then the index-journal block; then the fence,
// the epoch record (with its own trailing fence) and the allocator release.
// Committed crash reproducers index this flush sequence with FailAfter
// counts: on one core it must not be reordered.
func (db *DB) commitEpoch(epoch uint64, tokens []chan struct{}, counterVals []uint64, idxEntries []pmem.IndexEntry, idxAppend bool, spans []*obs.TxnSpan) {
	start := time.Now()
	// Every token closes on every exit path: a counter flush that dies
	// before the staging goroutines start must not leave the next epoch's
	// insertStep blocked in waitPoolStaged. A staging goroutine closes its
	// own token; launched counts those.
	launched := 0
	defer func() {
		for _, t := range tokens[launched:] {
			close(t)
		}
	}()
	for i, v := range counterVals {
		c := pmem.NewCounter(db.dev, db.layout, int64(i))
		c.Store(v, epoch)
		c.Flush()
	}
	var failed atomic.Pointer[any]
	var wg sync.WaitGroup
	for c := range tokens {
		wg.Add(1)
		launched++
		go func(c int) {
			defer wg.Done()
			defer close(tokens[c])
			defer func() {
				if r := recover(); r != nil {
					v := r
					failed.CompareAndSwap(nil, &v)
				}
			}()
			db.rowPools[c].Checkpoint(epoch)
			for k := range db.valPools {
				db.valPools[k][c].Checkpoint(epoch)
			}
		}(c)
	}
	wg.Wait()
	if p := failed.Load(); p != nil {
		panic(*p)
	}
	if idxAppend {
		// Fits was checked at capture and nothing else appends, so this
		// cannot fail; if it somehow does, the sticky overflow flag is
		// checkpointed below and recovery falls back to the row scan.
		db.idxLog.AppendEpoch(epoch, idxEntries)
		db.idxLog.Checkpoint(epoch)
	}
	if len(spans) > 0 {
		// Everything is staged: only the fence and the epoch record separate
		// the sampled transactions from durability.
		now := time.Now().UnixNano()
		for _, s := range spans {
			s.StagedNS = now
		}
	}
	db.obs.Flight().Record(obs.EvFence, obs.CoordinatorCore, epoch, int64(obs.CausePersistFinal), 0)
	db.dev.Tag(obs.CausePersistFinal).Fence()
	db.epochRec.Store(epoch)
	for c := 0; c < db.opts.Cores; c++ {
		db.rowPools[c].Checkpointed()
		for k := range db.valPools {
			db.valPools[k][c].Checkpointed()
		}
	}
	db.durableEpoch.Store(epoch)
	dur := time.Since(start)
	db.commitDur.Store(int64(dur))
	db.obs.Flight().Record(obs.EvDurablePublish, obs.CoordinatorCore, epoch, int64(dur), 0)
	// Stamp durability and retire the sampled spans into the txn-trace rings.
	if tt := db.obs.TxnTrace(); tt != nil && len(spans) > 0 {
		now := time.Now().UnixNano()
		for _, s := range spans {
			s.DurableNS = now
			tt.Publish(s)
		}
	}
}

// waitPoolStaged blocks until the in-flight committer, if any, has finished
// staging core c's pools, making Alloc, FreeGC, and ring appends on them
// safe again. Retired commits leave closed channels behind, so outside the
// overlap window this is one closed-channel receive.
func (db *DB) waitPoolStaged(c int) {
	if t := db.commitTokens; t != nil {
		<-t[c]
	}
}

// WaitDurable blocks until the most recently run epoch's record is durable:
// it joins the background committer, if one is in flight, and re-raises any
// panic it captured (an injected crash from the device's fail points, most
// usefully). The panic is sticky: once the committer died the device state
// is not trustworthy and every subsequent epoch attempt fails the same way.
// With Pipeline off the commit ran inline and it returns at once. Call it
// before snapshotting the device, reading fence-exact stats, or handing the
// device to a crash tester.
func (db *DB) WaitDurable() {
	if db.obs.On() {
		t := time.Now()
		db.persistWG.Wait()
		// Only joins that actually blocked are evidence; sub-microsecond
		// returns are the steady-state no-op.
		if wait := time.Since(t); wait > time.Microsecond {
			db.obs.Flight().Record(obs.EvCommitJoin, obs.CoordinatorCore, db.epoch.Load(), int64(wait), 0)
		}
	} else {
		db.persistWG.Wait()
	}
	db.raisePersistPanic()
}

// raisePersistPanic re-raises a sticky committer panic without joining an
// in-flight commit. RunEpoch entry uses it: a healthy commit may
// legitimately overlap this epoch's front, but a committer that died must
// surface immediately, not at the mid-epoch join.
func (db *DB) raisePersistPanic() {
	if p := db.persistPanic.Load(); p != nil {
		panic(*p)
	}
}

// DurableEpoch returns the last epoch whose record is known durable. It
// trails Epoch() by at most one epoch while a background commit is in
// flight and equals it otherwise.
func (db *DB) DurableEpoch() uint64 { return db.durableEpoch.Load() }

// collectIndexEntries drains the epoch's index deltas into one block: row
// creations (idxPuts is consumed), deferred deletions, and the rows queued
// for the next epoch's major collection. All three sources are consumed or
// mutated by the next epoch, so checkpointEpoch collects them synchronously
// before handing the block to commitEpoch.
func (db *DB) collectIndexEntries() []pmem.IndexEntry {
	var entries []pmem.IndexEntry
	for c := range db.idxPuts {
		entries = append(entries, db.idxPuts[c]...)
		db.idxPuts[c] = db.idxPuts[c][:0]
	}
	for _, keys := range db.deferredIndexDeletes {
		for _, k := range keys {
			entries = append(entries, pmem.IndexEntry{Kind: pmem.IdxDel, Table: k.Table, Key: k.ID})
		}
	}
	for _, pend := range db.gcPending {
		for _, rs := range pend {
			entries = append(entries, pmem.IndexEntry{Kind: pmem.IdxGC, RowOff: rs.nvOff})
		}
	}
	return entries
}

// compactIndexJournal replaces the journal's history with a snapshot of the
// live index plus this epoch's pending GC rows. The epoch's deltas are
// already reflected in the index (and deferred deletions are excluded
// below), so the snapshot subsumes them. A snapshot that does not fit sets
// the sticky overflow flag and recovery falls back to the row scan.
func (db *DB) compactIndexJournal(epoch uint64) {
	deleted := make(map[index.Key]struct{})
	for _, keys := range db.deferredIndexDeletes {
		for _, k := range keys {
			deleted[k] = struct{}{}
		}
	}
	snap := make([]pmem.IndexEntry, 0, db.idx.Len())
	db.idx.Range(func(k index.Key, rs *rowState) bool {
		if _, gone := deleted[k]; gone {
			return true
		}
		snap = append(snap, pmem.IndexEntry{Kind: pmem.IdxPut, Table: k.Table, Key: k.ID, RowOff: rs.nvOff})
		return true
	})
	for _, pend := range db.gcPending {
		for _, rs := range pend {
			snap = append(snap, pmem.IndexEntry{Kind: pmem.IdxGC, RowOff: rs.nvOff})
		}
	}
	db.idxLog.ResetForSnapshot()
	db.idxLog.AppendEpoch(epoch, snap) // overflow stays sticky on failure
}

// finishEpoch releases transient state and merges per-worker buffers.
func (db *DB) finishEpoch(epoch uint64, batch []*Txn, res *EpochResult) {
	db.releaseEpochState(epoch)
	for _, t := range batch {
		if t.aborted {
			res.Aborted++
		} else {
			res.Committed++
		}
		// The span pointer now lives on in the checkpoint's spans slice;
		// detaching it here keeps a re-submitted Txn value from dragging a
		// retired span (or a stale sampling decision) into a later epoch.
		t.span = nil
		t.spanConsidered = false
	}
	db.met.Coordinator().AddCommitted(int64(res.Committed))
	db.met.Coordinator().AddAborted(int64(res.Aborted))
}

// releaseEpochState resets the transient pools, applies deferred index
// deletions, and merges the per-worker eviction buffers.
func (db *DB) releaseEpochState(epoch uint64) {
	db.arenas.ResetAll()
	for c := range db.scratch {
		db.scratch[c] = 0
	}
	// Deferred index deletions are now safe: no readers remain.
	for c, keys := range db.deferredIndexDeletes {
		for _, k := range keys {
			db.idx.Delete(k)
		}
		db.deferredIndexDeletes[c] = db.deferredIndexDeletes[c][:0]
	}
	// Merge cache-fill buffers into the eviction ring slot for this epoch.
	slot := int(epoch % uint64(len(db.evictRing)))
	for c := range db.evictBuf {
		db.evictRing[slot] = append(db.evictRing[slot], db.evictBuf[c]...)
		db.evictBuf[c] = db.evictBuf[c][:0]
	}
}

// gatherWork routes every declared write-set op to its owner core. Workers
// scan their share of the batch into per-(worker, owner) buckets; owners
// then consume all buckets destined for them without locking.
func (db *DB) gatherWork(batch []*Txn) [][][]initWork {
	c := db.opts.Cores
	buckets := make([][][]initWork, c) // [worker][owner][]
	db.parallel(func(w int) {
		local := make([][]initWork, c)
		for i := w; i < len(batch); i += c {
			t := batch[i]
			for _, op := range t.Ops {
				k := index.Key{Table: op.Table, ID: op.Key}
				owner := db.ownerOf(k)
				local[owner] = append(local[owner], initWork{key: k, sid: t.sid, kind: op.Kind})
			}
		}
		buckets[w] = local
	})
	return buckets
}

// ownerOf maps a key to the core that owns its init-phase processing and
// persistent row allocation.
func (db *DB) ownerOf(k index.Key) int {
	return int(index.Hash(k) % uint64(db.opts.Cores))
}

// insertStep creates persistent rows for this epoch's inserts (§4.1): rows
// are allocated in NVMM directly, with no transient data or cached version
// until they are accessed, so only hot rows occupy DRAM.
func (db *DB) insertStep(epoch uint64, work [][][]initWork) error {
	var firstErr atomic.Pointer[error]
	db.parallel(func(owner int) {
		// Under the pipeline the previous epoch's committer may still be
		// staging this core's pools; allocation reopens per core as soon as
		// its own staging token closes.
		db.waitPoolStaged(owner)
		pool := db.rowPools[owner]
		for w := 0; w < db.opts.Cores; w++ {
			for _, it := range work[w][owner] {
				if it.kind != OpInsert {
					continue
				}
				if _, ok := db.idx.Get(it.key); ok {
					continue // insert onto an existing row: behaves as update
				}
				off, err := pool.Alloc()
				if err != nil {
					e := fmt.Errorf("core: insert step: %w", err)
					firstErr.CompareAndSwap(nil, &e)
					return
				}
				r := db.rowRefTag(off, obs.CauseAlloc)
				r.writeHeader(it.key.Table, it.key.ID)
				rs := &rowState{nvOff: off, owner: int32(owner)}
				db.idx.Put(it.key, rs)
				if db.idxLog != nil {
					db.idxPuts[owner] = append(db.idxPuts[owner], pmem.IndexEntry{
						Kind: pmem.IdxPut, Table: it.key.Table, Key: it.key.ID, RowOff: off,
					})
				}
			}
		}
	})
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// appendStep builds the per-row version arrays for the epoch (§3.1.2): for
// every row written this epoch, a sorted array of pending versions plus an
// initial version holding the row's state entering the epoch. The first
// thread to append to a row copies the existing data from the cached
// version (deleting it, since it will be updated) or from the persistent
// row.
func (db *DB) appendStep(epoch uint64, work [][][]initWork) {
	db.parallel(func(owner int) {
		// Merge and sort this owner's ops by (table, key, sid).
		var ops []initWork
		for w := 0; w < db.opts.Cores; w++ {
			ops = append(ops, work[w][owner]...)
		}
		sort.Slice(ops, func(i, j int) bool {
			a, b := ops[i], ops[j]
			if a.key.Table != b.key.Table {
				return a.key.Table < b.key.Table
			}
			if a.key.ID != b.key.ID {
				return a.key.ID < b.key.ID
			}
			return a.sid < b.sid
		})
		for i := 0; i < len(ops); {
			j := i
			for j < len(ops) && ops[j].key == ops[i].key {
				j++
			}
			db.buildVersionArray(epoch, owner, ops[i].key, ops[i:j])
			i = j
		}
	})
}

// buildVersionArray constructs one row's version array from its sorted ops.
func (db *DB) buildVersionArray(epoch uint64, owner int, key index.Key, ops []initWork) {
	rs, ok := db.idx.Get(key)
	if !ok {
		// Update/delete of a nonexistent row: deterministic databases know
		// write sets up front, so this is a workload bug. Creating no array
		// would hang readers, so fail loudly.
		panic(fmt.Sprintf("core: write set references missing row table=%d key=%d", key.Table, key.ID))
	}
	sids := make([]uint64, 0, len(ops)+1)
	sids = append(sids, 0)
	for _, op := range ops {
		if len(sids) > 1 && sids[len(sids)-1] == op.sid {
			continue // duplicate op on same key in one txn
		}
		sids = append(sids, op.sid)
	}
	va := newVersionArray(epoch, sids, &db.gate)

	// Materialize the initial version (slot 0).
	r := db.rowRef(rs.nvOff)
	latest := db.rowLatest(r)
	switch {
	case latest.isNull():
		// Row created this epoch (or never written): no prior state.
		va.vals[0].Store(notFoundVal)
	default:
		var init *versionVal
		if cv := rs.cached.Load(); cv != nil && db.cacheOn() {
			// Copy from the cached version, then delete it: it will be
			// rewritten by this epoch's final write (§4.1).
			data := db.arenas.Core(owner).Alloc(len(cv.data))
			copy(data, cv.data)
			init = &versionVal{kind: vkData, data: data, nvOff: -1}
			rs.cached.Store(nil)
			va.wasCached = true
			db.met.At(owner).CacheDrop(int64(len(cv.data)))
			db.met.At(owner).AddCacheHit()
		} else {
			// One NVMM read per written row per epoch.
			data := db.arenas.Core(owner).Alloc(int(latest.size))
			r.readValueInto(latest, data)
			init = db.placeTransient(owner, data)
			db.met.At(owner).AddRowRead()
			db.met.At(owner).AddCacheMiss()
		}
		va.vals[0].Store(init)
	}
	rs.va.Store(va)
}

// placeTransient wraps data as a transient version value. In ModeAllNVMM
// the bytes are copied into the core's NVMM scratch arena and re-read from
// the device on every access; otherwise they stay in DRAM.
func (db *DB) placeTransient(core int, data []byte) *versionVal {
	if db.opts.Mode == ModeAllNVMM {
		off := db.scratchAlloc(core, len(data))
		td := db.dev.Tag(obs.CauseIntermediate)
		td.WriteAt(data, off)
		td.Flush(off, int64(len(data)))
		return &versionVal{kind: vkData, nvOff: off, nvLen: len(data)}
	}
	return &versionVal{kind: vkData, data: data, nvOff: -1}
}

// scratchAlloc bumps the core's NVMM scratch arena.
func (db *DB) scratchAlloc(core int, n int) int64 {
	if db.layout.ScratchPerCore == 0 {
		panic("core: mode requires NVMM scratch but layout has none")
	}
	if int64(n) > db.layout.ScratchPerCore {
		// Wrapping cannot help: the value would overrun the region (and
		// scribble the next core's scratch) even from offset 0.
		panic(fmt.Sprintf("core: transient value of %d bytes exceeds ScratchPerCore %d",
			n, db.layout.ScratchPerCore))
	}
	off := db.scratch[core]
	if off+int64(n) > db.layout.ScratchPerCore {
		// Wrap: transient data is epoch-local and the oldest entries are
		// long consumed; wrapping models a ring of NVMM scratch.
		off = 0
	}
	db.scratch[core] = off + int64(n)
	return db.layout.ScratchOff(core) + off
}

// executePhase runs the batch on the worker cores. Worker w executes
// transactions w, w+C, w+2C, … in ascending serial order, which guarantees
// progress: the globally smallest unfinished transaction is always at the
// head of its worker's remaining queue, and waits only on finished
// transactions.
func (db *DB) executePhase(epoch uint64, batch []*Txn) {
	db.parallel(func(w int) {
		c := db.opts.Cores
		for i := w; i < len(batch); i += c {
			db.executeTxn(epoch, w, batch[i])
		}
	})
}

// executeTxn runs one transaction and publishes IGNORE markers for any
// declared-but-unperformed writes (covering user aborts and over-declared
// reconnaissance write sets).
func (db *DB) executeTxn(epoch uint64, w int, t *Txn) {
	timed := db.obs.TxnTimed() || t.span != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	ctx := &Ctx{db: db, txn: t, core: w, wrote: make([]bool, len(t.Ops))}
	if t.Exec != nil {
		t.Exec(ctx)
	}
	for i, op := range t.Ops {
		if ctx.wrote[i] {
			continue
		}
		db.writeIgnore(ctx, index.Key{Table: op.Table, ID: op.Key})
	}
	if timed {
		d := time.Since(t0)
		db.obs.ObserveTxn(w, d)
		t.span.MarkExec(w, t0, d, t.aborted)
	}
}

// parallel runs f(core) on every core and waits. A panic on any worker —
// including an injected crash from the device's fail-points — is re-raised
// on the calling goroutine once all workers have stopped.
func (db *DB) parallel(f func(core int)) {
	var wg sync.WaitGroup
	var panicked atomic.Pointer[any]
	for c := 0; c < db.opts.Cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					db.gate.unwind()
					if r != errEpochUnwound {
						v := r
						panicked.CompareAndSwap(nil, &v)
					}
				}
			}()
			f(c)
		}(c)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}

// rowRef returns an unattributed row handle (CauseOther): reads issued by
// transaction execution, digests, and stats. Paths that know their cause
// use rowRefTag.
func (db *DB) rowRef(off int64) rowRef {
	return db.rowRefTag(off, obs.CauseOther)
}

// rowRefTag returns a row handle crediting its device traffic to c.
func (db *DB) rowRefTag(off int64, c obs.Cause) rowRef {
	return rowRef{dev: db.dev.Tag(c), off: off, rowSize: db.layout.RowSize}
}

func (db *DB) cacheOn() bool {
	return db.opts.CacheEnabled && db.opts.Mode.caches()
}
