package core

import (
	"fmt"
	"time"

	"nvcaracal/internal/index"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/wal"
)

// RecoveryReport breaks down a recovery the way Figure 11 of the paper
// does: loading logged transactions, scanning persistent rows and
// rebuilding the index, reverting crashed-epoch changes (TPC-C variant),
// and replaying the failed epoch.
type RecoveryReport struct {
	CheckpointEpoch  uint64
	ReplayedEpoch    uint64 // 0 when there was nothing to replay
	TxnsReplayed     int
	RowsScanned      int
	RowsRepaired     int // torn dual-version descriptors fixed (§4.5)
	RowsReverted     int // crashed-epoch versions reset (TPC-C, §6.2.3)
	GCListRebuilt    int // rows re-queued for the major collector
	CountersRestored int // persistent counter slots restored from parity

	// UsedIndexJournal reports that the index was rebuilt from the
	// persistent index journal (§7 extension) instead of the row scan;
	// JournalEntries counts the replayed journal records.
	UsedIndexJournal bool
	JournalEntries   int

	LoadTime   time.Duration
	ScanTime   time.Duration
	RevertTime time.Duration
	ReplayTime time.Duration
}

// Total returns the end-to-end recovery time.
func (r RecoveryReport) Total() time.Duration {
	return r.LoadTime + r.ScanTime + r.RevertTime + r.ReplayTime
}

// Recover attaches to a device that holds a formatted database, restores
// the allocator and counter state of the last checkpointed epoch, rebuilds
// the DRAM row index by scanning the persistent rows, repairs torn
// dual-version descriptors, and — if the crashed epoch's inputs are in the
// log — deterministically replays that epoch. On return the database is
// consistent with having executed every epoch up to and including the
// replayed one.
func Recover(dev *nvm.Device, opts Options) (*DB, *RecoveryReport, error) {
	opts.applyDefaults()
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	// Register the layout's region map before any attributed traffic so the
	// spatial heatmap can resolve recovery reads to named regions.
	opts.Obs.Attrib().SetRegions(opts.Layout.Regions())
	if _, err := pmem.Attach(dev, opts.Layout); err != nil {
		return nil, nil, err
	}
	db := newDB(dev, opts)
	rep := &RecoveryReport{}
	// Every recovery stage (scan, repair, replay) runs under one profiling
	// region; replay's RunEpoch nests the usual per-phase regions inside it.
	defer db.opts.Prof.Region(obs.PhaseRecovery.String())()

	ckpt := db.epochRec.Load()
	rep.CheckpointEpoch = ckpt
	db.epoch.Store(ckpt)
	db.durableEpoch.Store(ckpt)
	crashed := ckpt + 1

	// Peek at the log first: whether the crashed epoch's inputs were fully
	// persisted — i.e. whether replay will happen — decides whether the
	// crashed epoch's durable GC frees are adopted below. Decoding is
	// deferred until allocators and counters are restored: decoders may
	// consult and mutate engine state (the TPC-C variant re-assigns order
	// and history IDs from the persistent counters at decode time, §6.2.3),
	// so they must see exactly the checkpointed state.
	t0 := time.Now()
	var recs []wal.Record
	willReplay := false
	if opts.Mode.logs() {
		recs, willReplay = db.log.ReadEpoch(crashed)
	}

	// Restore allocator state; collect the crashed epoch's durable GC
	// frees for duplicate suppression when the collection is redone.
	// Adoption is gated on replay: if the crashed epoch's log never became
	// durable, its init fence cannot have completed, so no row rewrite
	// landed and the epoch's landed ring entries must vanish with it (see
	// Pool.Recover).
	db.gcDupSet = make(map[int64]struct{})
	for c := 0; c < opts.Cores; c++ {
		db.rowPools[c].Recover(ckpt, willReplay)
		for k := range db.valPools {
			for _, off := range db.valPools[k][c].Recover(ckpt, willReplay) {
				db.gcDupSet[off] = struct{}{}
			}
		}
	}
	// Restore persistent counters from the checkpointed parity slots; the
	// crashed epoch wrote the other parity, so values it may have flushed
	// before its epoch record committed are ignored and replay re-applies
	// every increment exactly once.
	for i := range db.counters {
		db.counters[i].Store(pmem.NewCounter(dev, db.layout, int64(i)).Load(ckpt))
	}
	rep.CountersRestored = len(db.counters)

	// Decode the replay batch against the restored checkpoint state. An
	// Aria marker as the first record selects the Aria replay algorithm.
	var batch []*Txn
	var ariaBatch []*AriaTxn
	ariaEpoch := false
	if willReplay {
		if len(recs) > 0 && recs[0].Type == ariaMarkerType {
			ariaEpoch = true
			if opts.AriaRegistry == nil {
				return nil, nil, fmt.Errorf("core: crashed epoch %d is Aria-flavoured but no AriaRegistry configured", crashed)
			}
			ariaBatch = make([]*AriaTxn, len(recs)-1)
			for i, rec := range recs[1:] {
				t, err := opts.AriaRegistry.Decode(rec.Type, rec.Data, db)
				if err != nil {
					return nil, nil, fmt.Errorf("core: aria recovery decode: %w", err)
				}
				ariaBatch[i] = t
			}
		} else {
			batch = make([]*Txn, len(recs))
			for i, rec := range recs {
				t, err := opts.Registry.Decode(rec.Type, rec.Data, db)
				if err != nil {
					return nil, nil, fmt.Errorf("core: recovery decode: %w", err)
				}
				batch[i] = t
			}
		}
	}
	rep.LoadTime = time.Since(t0)
	// Per-stage flight events make long recoveries observable while they
	// run; B carries each stage's progress count.
	db.obs.Flight().Record(obs.EvRecoveryStage, obs.CoordinatorCore, crashed,
		int64(obs.RecoveryLoad), int64(len(recs)))

	// Fast path: rebuild the index from the persistent index journal (§7
	// extension) when it is enabled and validates; otherwise scan. An Aria
	// crashed epoch always scans: without declared write sets there is no
	// bound on which rows need torn-descriptor repair before replay reads.
	t1 := time.Now()
	var revertCandidates []*rowState
	if !ariaEpoch {
		if reverts, ok := db.recoverIndexFromJournal(crashed, batch, rep); ok {
			rep.ScanTime = time.Since(t1)
			db.obs.Flight().Record(obs.EvRecoveryStage, obs.CoordinatorCore, crashed,
				int64(obs.RecoveryScan), int64(rep.JournalEntries))
			return db.finishRecovery(batch, ariaBatch, crashed, rep, reverts, t1)
		}
	}

	// Scan the persistent rows, rebuild the index, repair torn versions,
	// and rebuild the major-GC list (§4.3, §5.5).
	// Deletions free a row slot into the *executing* core's pool, which
	// need not be the pool whose data region holds the slot, so the scan
	// must skip the union of all pools' free lists.
	free := make(map[int64]struct{})
	for c := 0; c < opts.Cores; c++ {
		for off := range db.rowPools[c].FreeSet() {
			free[off] = struct{}{}
		}
	}
	db.parallel(func(c int) {
		pool := db.rowPools[c]
		base := db.layout.RowDataOff(c)
		var scanned, repaired, gcRebuilt int
		var cands []*rowState
		for i := int64(0); i < pool.Bump(); i++ {
			off := base + i*db.layout.RowSize
			if _, isFree := free[off]; isFree {
				continue
			}
			r := db.rowRefTag(off, obs.CauseRecovery)
			scanned++
			h, fixed := r.repair(r.header(), crashed)
			if fixed {
				repaired++
			}
			key := h.indexKey()
			rs := &rowState{nvOff: off, owner: int32(db.ownerOf(key))}
			db.idx.Put(key, rs)

			v1, v2 := h.v1, h.v2
			if opts.RevertOnRecovery && !v2.isNull() && SIDEpoch(v2.sid) == crashed {
				cands = append(cands, rs)
				continue
			}
			// Re-queue rows whose pending major collection did not finish.
			// Rows whose v2 belongs to the crashed epoch are excluded: that
			// version is replayed, and collecting it now would overwrite
			// the checkpoint with un-fenced data.
			if !v2.isNull() && SIDEpoch(v2.sid) != crashed && !v1.isNull() &&
				v2ReplacedNeedsGC(v1, opts.MinorGCEnabled) {
				db.gcPending[c] = append(db.gcPending[c], rs)
				gcRebuilt++
			}
		}
		db.scanMu.Lock()
		rep.RowsScanned += scanned
		rep.RowsRepaired += repaired
		rep.GCListRebuilt += gcRebuilt
		revertCandidates = append(revertCandidates, cands...)
		db.scanMu.Unlock()
	})
	rep.ScanTime = time.Since(t1)
	db.obs.Flight().Record(obs.EvRecoveryStage, obs.CoordinatorCore, crashed,
		int64(obs.RecoveryScan), int64(rep.RowsScanned))
	return db.finishRecovery(batch, ariaBatch, crashed, rep, revertCandidates, t1)
}

// finishRecovery runs the revert pass and deterministic replay shared by
// the scan and journal recovery paths.
func (db *DB) finishRecovery(batch []*Txn, ariaBatch []*AriaTxn, crashed uint64, rep *RecoveryReport,
	revertCandidates []*rowState, _ time.Time) (*DB, *RecoveryReport, error) {
	// TPC-C variant: reset versions written by the crashed epoch, since the
	// replay may assign them different keys (§6.2.3).
	t2 := time.Now()
	for _, rs := range revertCandidates {
		r := db.rowRefTag(rs.nvOff, obs.CauseRecovery)
		if r.revertCrashedVersion(crashed) {
			rep.RowsReverted++
		}
	}
	rep.RevertTime = time.Since(t2)
	db.obs.Flight().Record(obs.EvRecoveryStage, obs.CoordinatorCore, crashed,
		int64(obs.RecoveryRevert), int64(rep.RowsReverted))

	// Replay the crashed epoch deterministically.
	t3 := time.Now()
	if batch != nil || ariaBatch != nil {
		db.replaying = true
		db.skipEpoch = crashed
		var err error
		if ariaBatch != nil {
			_, err = db.RunEpochAria(ariaBatch)
			rep.TxnsReplayed = len(ariaBatch)
		} else {
			_, err = db.RunEpoch(batch)
			rep.TxnsReplayed = len(batch)
		}
		db.replaying = false
		db.skipEpoch = 0
		db.gcDupSet = nil
		if err != nil {
			return nil, nil, fmt.Errorf("core: replay: %w", err)
		}
		rep.ReplayedEpoch = crashed
	}
	rep.ReplayTime = time.Since(t3)
	db.obs.Flight().Record(obs.EvRecoveryStage, obs.CoordinatorCore, crashed,
		int64(obs.RecoveryReplay), int64(rep.TxnsReplayed))
	if db.obs.On() {
		// One recovery span per stage (load, scan/journal, revert, replay),
		// laid end to end on the coordinator track. Replay of the crashed
		// epoch also records its own log/init/execute/persist spans via
		// RunEpoch, nested inside the replay stage's interval.
		t := time.Now().Add(-rep.Total())
		for _, d := range []time.Duration{rep.LoadTime, rep.ScanTime, rep.RevertTime, rep.ReplayTime} {
			db.obs.SpanAt(obs.CoordinatorCore, crashed, obs.PhaseRecovery, t, d)
			t = t.Add(d)
		}
	}
	return db, rep, nil
}

// recoverIndexFromJournal attempts the journal fast path: rebuild the index
// and major-GC list from the persistent index journal, repair the rows the
// crashed epoch could have touched (the journaled GC list and the replay
// batch's write sets), and collect the TPC-C revert candidates from the
// batch's write sets. Returns false — with the index left empty — when the
// journal is absent or does not validate, in which case the caller scans.
func (db *DB) recoverIndexFromJournal(crashed uint64, batch []*Txn, rep *RecoveryReport) ([]*rowState, bool) {
	if db.idxLog == nil {
		return nil, false
	}
	ckpt := crashed - 1
	// Only the final checkpointed epoch's GC entries are pending: lists
	// from earlier epochs were consumed by their successor.
	var entries []pmem.IndexEntry
	read := 0
	if !db.idxLog.Recover(ckpt, func(ep uint64, e pmem.IndexEntry) {
		read++
		if e.Kind != pmem.IdxGC || ep == ckpt {
			entries = append(entries, e)
		}
	}) {
		return nil, false
	}
	// Rebuild the index on every core at once, as the scan does: each core
	// applies, in journal order, the puts and deletes of the keys it owns,
	// so every key still sees its own entries in order. The rowStates of
	// puts into slots with pending GC entries are kept for resolving them.
	pending := pendingGCSlots(entries)
	var states []*rowState
	if len(pending) > 0 {
		states = make([]*rowState, len(entries))
	}
	db.parallel(func(c int) {
		for i, e := range entries {
			if e.Kind == pmem.IdxGC {
				continue
			}
			key := index.Key{Table: e.Table, ID: e.Key}
			if db.ownerOf(key) != c {
				continue
			}
			if e.Kind == pmem.IdxDel {
				db.idx.Delete(key)
				continue
			}
			rs := &rowState{nvOff: e.RowOff, owner: int32(c)}
			db.idx.Put(key, rs)
			if _, ok := pending[e.RowOff]; ok {
				states[i] = rs
			}
		}
	})
	gcRows := resolveGCRows(entries, states, pending)
	rep.UsedIndexJournal = true
	rep.JournalEntries = read

	// Repair torn descriptors on every row the crashed epoch could have
	// modified: the pending GC list (major-GC copies, §4.5 cases 1-2) and
	// the replay batch's declared write sets (final writes and minor-GC
	// copies). Execution cannot have touched anything else, and nothing
	// executes before the input log is durable.
	for _, rs := range gcRows {
		r := db.rowRefTag(rs.nvOff, obs.CauseRecovery)
		h, fixed := r.repair(r.header(), crashed)
		if fixed {
			rep.RowsRepaired++
		}
		// Re-queue only rows whose collection is still pending, under the
		// same condition as the scan path: repair completes collections the
		// crash interrupted mid-copy, and blindly re-queuing a completed row
		// would free the value its surviving version references.
		v1, v2 := h.v1, h.v2
		if !v2.isNull() && SIDEpoch(v2.sid) != crashed && !v1.isNull() &&
			v2ReplacedNeedsGC(v1, db.opts.MinorGCEnabled) {
			db.gcPending[rs.owner] = append(db.gcPending[rs.owner], rs)
			rep.GCListRebuilt++
		}
	}
	var reverts []*rowState
	seen := make(map[index.Key]struct{})
	for _, t := range batch {
		for _, op := range t.Ops {
			key := index.Key{Table: op.Table, ID: op.Key}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			rs, ok := db.idx.Get(key)
			if !ok {
				continue // row created by the crashed epoch: reverted by the allocators
			}
			r := db.rowRefTag(rs.nvOff, obs.CauseRecovery)
			h, fixed := r.repair(r.header(), crashed)
			if fixed {
				rep.RowsRepaired++
			}
			if db.opts.RevertOnRecovery && !h.v2.isNull() && SIDEpoch(h.v2.sid) == crashed {
				reverts = append(reverts, rs)
			}
		}
	}
	return reverts, true
}

// pendingGCSlots returns the row slots named by GC entries: the pending
// major-GC list.
func pendingGCSlots(entries []pmem.IndexEntry) map[int64]struct{} {
	pending := make(map[int64]struct{})
	for _, e := range entries {
		if e.Kind == pmem.IdxGC {
			pending[e.RowOff] = struct{}{}
		}
	}
	return pending
}

// resolveGCRows resolves the pending GC entries, which carry only a row
// offset, to rowStates, in journal order. An entry resolves to the rowState
// whose put last claimed the slot before it, unless that row's key was
// deleted in between. states holds the rowState of every put into a
// pending slot.
func resolveGCRows(entries []pmem.IndexEntry, states []*rowState, pending map[int64]struct{}) []*rowState {
	if len(pending) == 0 {
		return nil
	}
	slotOwner := make(map[int64]*rowState) // pending slot -> rowState
	keyAt := make(map[index.Key]*rowState) // key -> its rowState, in a pending slot
	var gcRows []*rowState
	for i, e := range entries {
		key := index.Key{Table: e.Table, ID: e.Key}
		switch e.Kind {
		case pmem.IdxPut:
			if rs := states[i]; rs != nil {
				slotOwner[e.RowOff] = rs
				keyAt[key] = rs
			} else {
				delete(keyAt, key)
			}
		case pmem.IdxDel:
			if rs, ok := keyAt[key]; ok {
				delete(slotOwner, rs.nvOff)
				delete(keyAt, key)
			}
		case pmem.IdxGC:
			if rs, ok := slotOwner[e.RowOff]; ok {
				gcRows = append(gcRows, rs)
			}
		}
	}
	return gcRows
}

// rowLatest resolves the latest committed persistent version of a row,
// skipping versions written by the epoch currently being replayed: those
// are un-fenced crashed-epoch data that the replay itself will overwrite,
// and replayed reads must observe the checkpoint instead.
func (db *DB) rowLatest(r rowRef) version { return r.header().latest(db.skipEpoch) }
