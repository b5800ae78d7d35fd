package core

import (
	"fmt"
	"time"

	"nvcaracal/internal/index"
	"nvcaracal/internal/obs"
)

// read resolves a read at the transaction's serial id (§4.1):
//
//  1. If the row has a version array this epoch, binary-search the latest
//     version below the reader's sid, waiting out PENDING slots and
//     skipping IGNORE markers.
//  2. Otherwise serve from the cached version if present.
//  3. Otherwise read the persistent row from NVMM (at most one NVMM read
//     per row per epoch in the NVCaracal design, since the result is
//     cached).
func (db *DB) read(c *Ctx, key index.Key) ([]byte, bool) {
	rs, ok := db.idx.Get(key)
	if !ok {
		return nil, false
	}
	epoch := SIDEpoch(c.txn.sid)
	if va := rs.currentVA(epoch); va != nil {
		vv := va.resolveRead(c.txn.sid)
		return db.materialize(vv)
	}
	// No writes to this row in the epoch: serve from the committed state
	// (cached version or persistent row).
	return db.readCommittedRow(c.core, epoch, rs)
}

// materialize converts a transient version value into user-visible bytes.
func (db *DB) materialize(vv *versionVal) ([]byte, bool) {
	switch vv.kind {
	case vkData:
		if vv.nvOff >= 0 {
			// ModeAllNVMM: the value lives in NVMM scratch; every access is
			// a charged device read.
			return db.dev.Slice(vv.nvOff, int64(vv.nvLen)), true
		}
		return vv.data, true
	case vkDeleted, vkNotFound:
		return nil, false
	default:
		panic("core: materialize on ignore version")
	}
}

// write publishes the transaction's version of a row and, if this is the
// row's final write of the epoch, persists it to NVMM.
func (db *DB) write(c *Ctx, key index.Key, val []byte) {
	rs, va := db.lookupVA(c, key)
	slot := va.slotOf(c.txn.sid)

	// Copy the payload into the worker's transient arena: intermediate
	// versions live (and die) with the epoch.
	data := db.arenas.Core(c.core).Alloc(len(val))
	copy(data, val)
	if a := db.obs.Attrib(); a != nil {
		// Every logical row write, final or not; the counterfactual charges
		// the value lines plus one descriptor line, what a persist-every-
		// write design would pay for this update.
		a.AddLogicalWrite(c.core, int64(len(val)), int64(len(val)+nvLineSize-1)/nvLineSize+1)
	}
	vv := db.placeTransient(c.core, data)
	isFinal := c.txn.sid == va.maxSID
	if db.opts.Mode == ModeHybrid && !isFinal {
		// Hybrid baseline: every intermediate update is written to NVMM
		// immediately (the final write goes to the persistent row below),
		// though reads are served from DRAM — one NVMM write per update,
		// like Zen or WBL.
		off := db.scratchAlloc(c.core, len(val))
		td := db.dev.Tag(obs.CauseIntermediate)
		td.WriteAt(val, off)
		td.Flush(off, int64(len(val)))
	}
	va.publish(slot, vv)

	if isFinal {
		db.finalize(c.core, rs, va, slot)
	} else {
		db.met.At(c.core).AddTransient()
	}
}

// writeDelete publishes a deletion version.
func (db *DB) writeDelete(c *Ctx, key index.Key) {
	rs, va := db.lookupVA(c, key)
	slot := va.slotOf(c.txn.sid)
	if a := db.obs.Attrib(); a != nil {
		a.AddLogicalWrite(c.core, 0, 1) // a persist-all design still writes the descriptor
	}
	va.publish(slot, deletedVal)
	if c.txn.sid == va.maxSID {
		db.finalize(c.core, rs, va, slot)
	} else {
		db.met.At(c.core).AddTransient()
	}
}

// writeIgnore publishes an IGNORE marker for a declared write the
// transaction did not perform (user abort, §4.6, or an over-declared write
// set). If the ignored write was the row's final write, the latest
// non-ignored version of the epoch is persisted in its stead.
func (db *DB) writeIgnore(c *Ctx, key index.Key) {
	rs, va := db.lookupVA(c, key)
	slot := va.slotOf(c.txn.sid)
	va.publish(slot, ignoreVal)
	if c.txn.sid == va.maxSID {
		db.finalize(c.core, rs, va, slot)
	}
}

func (db *DB) lookupVA(c *Ctx, key index.Key) (*rowState, *versionArray) {
	rs, ok := db.idx.Get(key)
	if !ok {
		panic(fmt.Sprintf("core: write to unindexed row table=%d key=%d", key.Table, key.ID))
	}
	va := rs.currentVA(SIDEpoch(c.txn.sid))
	if va == nil {
		panic("core: write without version array (append step missed the op)")
	}
	return rs, va
}

// finalize handles the epoch's final write to a row: it resolves which
// version is actually final (skipping trailing IGNOREs), updates the DRAM
// cached version, and writes the persistent row in NVMM with the
// dual-version protocol.
func (db *DB) finalize(core int, rs *rowState, va *versionArray, slot int) {
	idx, vv := va.latestCommitted(slot)
	if idx == 0 {
		// Everything after the initial version was ignored: the persistent
		// row keeps its previous state (§4.6). Restore the cached version
		// that the append step deleted.
		switch vv.kind {
		case vkData:
			if db.cacheOn() && db.shouldCache(va) {
				data, _ := db.materialize(vv)
				db.installCached(core, rs, data, va.epoch)
			}
		case vkNotFound:
			// The row was inserted this epoch and every write (including
			// the insert) aborted: the row must not exist.
			db.dropRow(core, rs, true)
		}
		return
	}
	sid := va.sids[idx]
	switch vv.kind {
	case vkDeleted:
		db.met.At(core).AddPersistent()
		db.dropRow(core, rs, va.vals[0].Load().kind == vkNotFound)
	case vkData:
		db.met.At(core).AddPersistent()
		data, _ := db.materialize(vv)
		if db.cacheOn() && db.shouldCache(va) {
			// Create the cached version before the persistent write so the
			// value is available from DRAM first (§4.1).
			db.installCached(core, rs, data, va.epoch)
		}
		db.persistFinal(core, rs, sid, data)
	default:
		panic("core: latestCommitted returned ignore")
	}
}

// shouldCache decides whether a final write creates a cached version. With
// CacheHotOnly (§7 extension), only rows the initialization phase could
// identify as hot qualify: multiple writers this epoch (version array
// longer than initial + one), or a row that was already cached.
func (db *DB) shouldCache(va *versionArray) bool {
	if !db.opts.CacheHotOnly {
		return true
	}
	return va.wasCached || len(va.sids) > 2
}

// installCached publishes a DRAM cached version for the row and queues it
// for epoch-based eviction. data is copied: cached versions outlive the
// transient pool.
func (db *DB) installCached(core int, rs *rowState, data []byte, epoch uint64) {
	cv := &cachedVersion{data: append([]byte(nil), data...)}
	cv.stamp.Store(epoch)
	// Swap keeps the byte accounting exact even when two readers race to
	// install a cached version for the same row.
	if old := rs.cached.Swap(cv); old != nil {
		db.met.At(core).CacheDrop(int64(len(old.data)))
	}
	db.met.At(core).CacheAdd(int64(len(cv.data)))
	if rs.onEvictList.CompareAndSwap(false, true) {
		db.evictBuf[core] = append(db.evictBuf[core], rs)
	}
}

// dropRow deletes a row: its persistent slot and any non-inline values are
// freed into the executing core's pools (revertible: a crash before the
// checkpoint replays the epoch and repeats the deletion), and the index
// entry is removed at the epoch boundary so in-flight readers still
// resolve. inserted marks a row inserted this epoch: its header line holds
// the insert's unflushed store, and with no final write to carry it, the
// drop writes the line back so no dirty line outlives the checkpoint.
func (db *DB) dropRow(core int, rs *rowState, inserted bool) {
	if inserted {
		db.dev.Tag(obs.CauseAlloc).Flush(rs.nvOff, rowInline)
	}
	h := db.rowRefTag(rs.nvOff, obs.CausePersistFinal).header()
	for _, v := range [2]version{h.v1, h.v2} {
		if !v.isNull() && !v.isInline() && v.ptr != ptrNone {
			db.freeValue(core, int64(v.ptr))
		}
	}
	db.rowPools[core].Free(rs.nvOff)
	if cv := rs.cached.Load(); cv != nil {
		rs.cached.Store(nil)
		db.met.At(core).CacheDrop(int64(len(cv.data)))
	}
	db.deferredIndexDeletes[core] = append(db.deferredIndexDeletes[core], h.indexKey())
}

// persistFinal writes the final version of a row into its persistent slot
// using the dual-version protocol (§4.4–4.5):
//
//   - If v2 is empty, the new version goes there; v1 keeps the checkpoint.
//   - If v2 holds this sid already, we are replaying a crashed epoch whose
//     final write was (partially) persisted: overwrite it (repair case 3).
//   - Otherwise v2 holds the previous checkpoint. If v1 is empty, v2 is
//     copied down to v1 (preserving the checkpoint); if v1 holds an older
//     stale version, the minor collector reclaims it in place (inline
//     values swap slots; non-inline staleness is impossible here because
//     the major collector cleaned it during initialization).
//   - Finally the new version is placed: inline if it fits in the row's
//     inline heap, otherwise in a slot from the core's value pool.
func (db *DB) persistFinal(core int, rs *rowState, sid uint64, data []byte) {
	r := db.rowRefTag(rs.nvOff, obs.CausePersistFinal)
	h := r.header()
	v1, v2 := h.v1, h.v2

	replayOverwrite := v2.sid == sid
	if !replayOverwrite && !v2.isNull() {
		// v2 is the most recent checkpointed version; move it to v1.
		minor := !v1.isNull()
		if minor {
			// Minor GC: v1 is the stale version. It must be inline — the
			// major collector handles non-inline staleness during init.
			if !v1.isInline() && v1.ptr != ptrNone {
				panic(fmt.Sprintf("core: non-inline stale version reached the execution phase (row off=%d key=%d/%d v1{sid=%x ptr=%d} v2{sid=%x ptr=%d inline=%v} sid=%x)",
					rs.nvOff, h.table, h.key, v1.sid, v1.ptr, v2.sid, v2.ptr, v2.isInline(), sid))
			}
			db.met.At(core).AddMinorGC()
		}
		timed := minor && db.obs.On()
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		// No write-back here: writeFinal below stores v2 into the same
		// header line and writes it back, with no fence between.
		if minor {
			r.retag(obs.CauseMinorGC).storeVersion(1, v2, nil)
		} else {
			r.storeVersion(1, v2, nil)
		}
		if timed {
			db.obs.Span(core, SIDEpoch(sid), obs.PhaseMinorGC, t0)
		}
		v1 = v2
	}

	// Place the new value: inline slot not used by v1, or a value slot.
	var ptr uint64
	if int64(len(data)) <= r.inlineHalf() {
		ptr = freeInlineSlot(v1)
	} else {
		k := db.layout.ValueClassFor(int64(len(data)))
		if k < 0 {
			panic(fmt.Sprintf("core: value of %d bytes exceeds the largest value class %d", len(data), db.layout.MaxValueSize()))
		}
		off, err := db.valPools[k][core].Alloc()
		if err != nil {
			panic(fmt.Sprintf("core: value pool exhausted: %v", err))
		}
		ptr = uint64(off)
	}
	r.writeFinal(sid, ptr, data)
	if a := db.obs.Attrib(); a != nil {
		a.AddCommitted(core, int64(len(data)))
	}

	// If the stale first version is non-inline, queue the row for the
	// major collector; if the minor collector is disabled, all stale rows
	// go to the major list (Figure 9's ablation). v1 is what the row's
	// first descriptor holds now: writeFinal only stores v2.
	if !v1.isNull() && v2ReplacedNeedsGC(v1, db.opts.MinorGCEnabled) {
		db.gcPending[core] = append(db.gcPending[core], rs)
	}
}

// freeValue returns a persistent value slot to the freeing core's pool of
// the slot's size class.
func (db *DB) freeValue(core int, off int64) {
	k := db.layout.ValueClassOfOffset(off)
	if k < 0 {
		panic(fmt.Sprintf("core: freeing offset %d outside any value region", off))
	}
	db.valPools[k][core].Free(off)
}

// freeValueGC returns a persistent value slot to the freeing core's pool as
// a non-revertible stamped GC entry (see Pool.FreeGC): recovery re-adopts
// it even though the freeing epoch never checkpointed, because the major
// collector may already have overwritten the only pointer to the slot.
func (db *DB) freeValueGC(core int, off int64, epoch uint64) {
	k := db.layout.ValueClassOfOffset(off)
	if k < 0 {
		panic(fmt.Sprintf("core: freeing offset %d outside any value region", off))
	}
	db.valPools[k][core].FreeGC(off, epoch)
}

// v2ReplacedNeedsGC reports whether the stale first version requires the
// major collector next epoch.
func v2ReplacedNeedsGC(v1 version, minorEnabled bool) bool {
	if !minorEnabled {
		return true
	}
	return !v1.isInline() && v1.ptr != ptrNone
}
