package core

import (
	"time"

	"nvcaracal/internal/obs"
)

// majorGCState carries a major collection across the epoch's init fence:
// majorGCBegin runs phase 1 (frees + ring flushes, no fence of its own),
// the caller issues the epoch's single initialization fence, and
// majorGCFinish runs phase 2 (row rewrites).
type majorGCState struct {
	byOwner [][]*rowState
	// v2s[owner][i] is byOwner[owner][i]'s second descriptor as phase 1
	// read it. Nothing writes a queued row between the phases, so phase 2
	// rewrites the row from it instead of reading the header again.
	v2s     [][]version
	pending bool
	start   time.Time
}

// majorGCBegin runs phase 1 of the major collector during the
// initialization phase of an epoch (§4.4, §5.5): every row queued last
// epoch with a non-inline stale first version has that version's value
// appended to its owner core's free ring as a stamped GC entry
// (Pool.FreeGC), and the touched ring lines are flushed.
//
// The collection is crash-safe in two phases:
//
//	Phase 1 appends all value frees to the per-core free-list rings as
//	self-validating stamped entries and flushes the touched lines. It
//	issues no fence: the epoch's single init fence (issued by the caller
//	between Begin and Finish) makes the entries durable before any row is
//	rewritten. Recovery adopts durably-landed GC entries by verifying
//	their stamps, so no separate non-revertible current-tail persist (and
//	no second fence) is needed. A crash before the init fence can land any
//	subset of entries; the replayed collection's duplicate-suppression set
//	(built from the adopted entries) prevents double frees.
//	Phase 2 (majorGCFinish) rewrites the rows (copy v2→v1, reset v2) with
//	the SID-before-pointer ordering; a crash mid-phase leaves rows that
//	the recovery scan re-queues. Any row observed collected (v2 null)
//	implies its free is durable: row rewrites only start after the init
//	fence, which committed every GC ring entry.
func (db *DB) majorGCBegin(epoch uint64) majorGCState {
	// Shard the pending rows to their owner cores so each core frees into
	// its own value pool.
	byOwner := make([][]*rowState, db.opts.Cores)
	for w := range db.gcPending {
		for _, rs := range db.gcPending[w] {
			byOwner[rs.owner] = append(byOwner[rs.owner], rs)
		}
		db.gcPending[w] = db.gcPending[w][:0]
	}

	pending := false
	for _, l := range byOwner {
		if len(l) > 0 {
			pending = true
			break
		}
	}

	st := majorGCState{byOwner: byOwner, v2s: make([][]version, len(byOwner)), pending: pending}
	// Only collections that actually rewrite rows get a span: an empty
	// pending set is a queue check, not a GC.
	if pending && db.obs.On() {
		st.start = time.Now()
		n := 0
		for _, l := range byOwner {
			n += len(l)
		}
		db.obs.Flight().Record(obs.EvGCBegin, obs.CoordinatorCore, epoch, int64(n), 0)
	}
	if !pending {
		return st
	}

	// Phase 1: append frees as stamped GC entries and flush the ring lines.
	// The collector runs inside the init phase on the coordinator, so the
	// profiling region is nested: end restores the "init" label.
	defer db.opts.Prof.RegionNested(obs.PhaseMajorGC.String(), obs.PhaseInit.String())()
	db.parallel(func(owner int) {
		// Under the pipeline the previous epoch's committer may still be
		// staging this core's pools; frees reopen per core as soon as its
		// own staging token closes.
		db.waitPoolStaged(owner)
		v2s := make([]version, len(byOwner[owner]))
		st.v2s[owner] = v2s
		for i, rs := range byOwner[owner] {
			h := db.rowRefTag(rs.nvOff, obs.CauseMajorGC).header()
			v1 := h.v1
			v2s[i] = h.v2
			if v1.isNull() || v1.isInline() || v1.ptr == ptrNone {
				continue // inline staleness frees nothing
			}
			if db.replaying {
				if _, dup := db.gcDupSet[int64(v1.ptr)]; dup {
					continue // already durably freed by the crashed epoch
				}
			}
			db.freeValueGC(owner, int64(v1.ptr), epoch)
		}
		for k := range db.valPools {
			db.valPools[k][owner].FlushRing()
		}
	})
	return st
}

// majorGCFinish runs phase 2 of the major collector: rewriting the queued
// rows. The caller must have issued a fence after majorGCBegin — phase 2
// must never overwrite a stale version whose free is not yet durable.
func (db *DB) majorGCFinish(epoch uint64, st majorGCState) {
	if !st.pending {
		return
	}
	defer db.opts.Prof.RegionNested(obs.PhaseMajorGC.String(), obs.PhaseInit.String())()
	db.parallel(func(owner int) {
		for i, rs := range st.byOwner[owner] {
			v2 := st.v2s[owner][i]
			if v2.isNull() {
				// Already collected (replay of a crashed collection that
				// completed this row).
				continue
			}
			// One header write-back per row: resetVersion's flush covers
			// the copy, which lands in the same line with no fence between.
			r := db.rowRefTag(rs.nvOff, obs.CauseMajorGC)
			r.storeVersion(1, v2, nil)
			r.resetVersion(2)
			db.met.At(owner).AddMajorGC()
		}
	})
	if !st.start.IsZero() {
		db.obs.Span(obs.CoordinatorCore, epoch, obs.PhaseMajorGC, st.start)
		db.obs.Flight().Record(obs.EvGCEnd, obs.CoordinatorCore, epoch, int64(time.Since(st.start)), 0)
	}
}

// evictCache drops cached versions that have not been created or accessed
// in the last K epochs (§4.2, §5.2). It runs during initialization, when no
// transactions execute, so no synchronization with row accesses is needed.
// Entries touched more recently than the target epoch are forwarded to the
// ring slot of their last-access epoch instead of being evicted.
func (db *DB) evictCache(epoch uint64) {
	k := uint64(db.opts.CacheK)
	if epoch <= k+1 {
		return
	}
	target := epoch - k - 1
	ringLen := uint64(len(db.evictRing))
	slot := int(target % ringLen)
	list := db.evictRing[slot]
	db.evictRing[slot] = nil
	for _, rs := range list {
		cv := rs.cached.Load()
		if cv == nil {
			rs.onEvictList.Store(false)
			continue
		}
		stamp := cv.stamp.Load()
		if stamp <= target {
			rs.cached.Store(nil)
			rs.onEvictList.Store(false)
			db.met.Coordinator().CacheDrop(int64(len(cv.data)))
			continue
		}
		db.evictRing[stamp%ringLen] = append(db.evictRing[stamp%ringLen], rs)
	}
}
