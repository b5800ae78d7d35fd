package core

import (
	"bytes"
	"testing"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// TestRowHeaderReadOncePerVisit pins the engine's row-header access
// pattern with exact attribution counts: every visit to a persistent row
// reads its 64-byte header line with one device read, never field by
// field. The final write and the delete of a row, a major collection (both
// phases together), and the recovery scan visit a row once each.
func TestRowHeaderReadOncePerVisit(t *testing.T) {
	const rows, updates, deletes = 100, 40, 10
	db, dev, a := openAttrib(t, 2, ModeNVCaracal)
	// Values too large for the inline heap live in the value pool, so the
	// update epoch queues every updated row for the major collector.
	big := func(b byte) []byte { return bytes.Repeat([]byte{b}, 200) }
	var batch []*Txn
	for k := uint64(0); k < rows; k++ {
		batch = append(batch, mkInsert(k, big('i')))
	}
	mustRun(t, db, batch)

	// Final writes and deletes: one header read per persisted row.
	a.Reset()
	before := db.Metrics()
	batch = batch[:0]
	for k := uint64(0); k < updates; k++ {
		batch = append(batch, mkSet(k, big('u')))
	}
	for k := uint64(rows - deletes); k < rows; k++ {
		batch = append(batch, mkDelete(k))
	}
	mustRun(t, db, batch)
	m := db.Metrics().Sub(before)
	if m.PersistentVersions != updates+deletes {
		t.Fatalf("PersistentVersions = %d, want %d", m.PersistentVersions, updates+deletes)
	}
	if c := a.Counts(obs.CausePersistFinal); c.LineReads != updates+deletes || c.BytesRead != (updates+deletes)*rowInline {
		t.Fatalf("persist-final reads = %d lines / %d bytes, want one header line for each of %d rows",
			c.LineReads, c.BytesRead, updates+deletes)
	}

	// Major GC: phase 1 reads the header to free v1's value and keeps v2
	// for phase 2's copy-down; one header read per row in all.
	a.Reset()
	before = db.Metrics()
	mustRun(t, db, []*Txn{mkSet(0, big('g'))})
	if n := db.Metrics().Sub(before).MajorGCs; n != updates {
		t.Fatalf("MajorGCs = %d, want %d", n, updates)
	}
	if c := a.Counts(obs.CauseMajorGC); c.LineReads != updates {
		t.Fatalf("major-GC reads = %d lines, want one header line for each of %d rows", c.LineReads, updates)
	}

	// Recovery scan after a clean crash: no torn rows, nothing to replay.
	// The log contributes one line, the slot header showing that the
	// crashed epoch logged nothing; every other recovery read is a row
	// header, once per live row.
	dev.Crash(nvm.CrashStrict, 1)
	a.Reset()
	db2, rep, err := Recover(dev, db.opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsScanned != rows-deletes || rep.RowsRepaired != 0 || rep.ReplayedEpoch != 0 {
		t.Fatalf("recovery report %+v, want %d rows scanned, no repair, no replay", rep, rows-deletes)
	}
	if c := a.Counts(obs.CauseRecovery); c.LineReads != int64(rep.RowsScanned)+1 {
		t.Fatalf("recovery reads = %d lines, want one header line for each of %d rows plus the log header",
			c.LineReads, rep.RowsScanned)
	}
	wantGet(t, db2, 0, big('g'))
	wantGet(t, db2, 1, big('u'))
	if _, ok := db2.Get(tblKV, rows-1); ok {
		t.Fatal("deleted row survived recovery")
	}
	if err := db2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRowHeaderWrittenBackOncePerEpoch pins the engine's row-header
// write-backs with exact per-cause flush counts: a row's header line is
// written back once per epoch, after its last store of the epoch. The
// insert step's header store, persistFinal's v2→v1 move (with or without
// the minor collector) and major GC's copy-down all share the line with a
// later store that has no fence before it, so none of them writes the line
// back on its own.
func TestRowHeaderWrittenBackOncePerEpoch(t *testing.T) {
	const rows, bigRows = 40, 16
	db, _, a := openAttrib(t, 2, ModeNVCaracal)
	// Empty values occupy no value line, so every row write-back the
	// persist-final and GC causes issue is a header line. Each epoch also
	// writes back its epoch record (persist-final) and every pool's control
	// line (alloc).
	pools := int64(len(db.rowPools) + len(db.valPools)*db.opts.Cores)
	epoch := func(name string, batch []*Txn, want map[obs.Cause]int64) {
		t.Helper()
		a.Reset()
		mustRun(t, db, batch)
		for c, n := range want {
			if got := a.Counts(c).Flushes; got != n {
				t.Errorf("%s: %s write-backs = %d, want %d", name, c, got, n)
			}
		}
	}
	var batch []*Txn
	for k := uint64(0); k < rows; k++ {
		batch = append(batch, mkInsert(k, nil), mkSet(k, nil))
	}
	epoch("insert then write", batch, map[obs.Cause]int64{
		obs.CauseAlloc:        pools,
		obs.CausePersistFinal: rows + 1,
		obs.CauseMinorGC:      0,
		obs.CauseMajorGC:      0,
	})

	sets := func(from, to uint64, val []byte) []*Txn {
		var b []*Txn
		for k := from; k < to; k++ {
			b = append(b, mkSet(k, val))
		}
		return b
	}
	// v1 is empty: the checkpointed v2 moves down, no collection.
	before := db.Metrics()
	epoch("v2→v1 move", sets(0, rows, nil), map[obs.Cause]int64{
		obs.CauseAlloc:        pools,
		obs.CausePersistFinal: rows + 1,
		obs.CauseMinorGC:      0,
	})
	if n := db.Metrics().Sub(before).MinorGCs; n != 0 {
		t.Fatalf("MinorGCs = %d in the first move, want 0", n)
	}
	// v1 now holds a stale inline version: the minor collector overwrites
	// it with the move.
	before = db.Metrics()
	epoch("v2→v1 move with minor GC", sets(0, rows, nil), map[obs.Cause]int64{
		obs.CauseAlloc:        pools,
		obs.CausePersistFinal: rows + 1,
		obs.CauseMinorGC:      0,
	})
	if n := db.Metrics().Sub(before).MinorGCs; n != rows {
		t.Fatalf("MinorGCs = %d, want %d", n, rows)
	}

	// Pooled values leave a non-inline stale v1 behind, which the next
	// epoch's major collector frees (ring lines, under alloc) and rewrites
	// (one header write-back per row).
	batch = batch[:0]
	for k := uint64(rows); k < rows+bigRows; k++ {
		batch = append(batch, mkInsert(k, bigVal('i')))
	}
	mustRun(t, db, batch)
	mustRun(t, db, sets(rows, rows+bigRows, bigVal('u')))
	before = db.Metrics()
	epoch("major GC", sets(0, 1, nil), map[obs.Cause]int64{
		obs.CausePersistFinal: 1 + 1,
		obs.CauseMinorGC:      0,
		obs.CauseMajorGC:      bigRows,
	})
	if n := db.Metrics().Sub(before).MajorGCs; n != bigRows {
		t.Fatalf("MajorGCs = %d, want %d", n, bigRows)
	}

	// An insert that aborts gets no final write: the drop writes its header
	// back (alloc), next to the freed slot's ring line and the control lines.
	abortIns := &Txn{
		TypeID: ttInsert, Input: encSet(rows+bigRows, nil),
		Ops:  []Op{{Table: tblKV, Key: rows + bigRows, Kind: OpInsert}},
		Exec: func(ctx *Ctx) { ctx.Abort() },
	}
	epoch("aborted insert", []*Txn{abortIns}, map[obs.Cause]int64{
		obs.CauseAlloc:        pools + 1 + 1,
		obs.CausePersistFinal: 1,
	})
	wantGet(t, db, rows+bigRows, nil)
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
