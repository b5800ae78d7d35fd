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
// field. The final write and the delete of a row, each major-GC phase, and
// the recovery scan visit a row once each.
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

	// Major GC: phase 1 reads v1 to free its value, phase 2 reads v2 to
	// copy it down; one header read per row in each phase.
	a.Reset()
	before = db.Metrics()
	mustRun(t, db, []*Txn{mkSet(0, big('g'))})
	if n := db.Metrics().Sub(before).MajorGCs; n != updates {
		t.Fatalf("MajorGCs = %d, want %d", n, updates)
	}
	if c := a.Counts(obs.CauseMajorGC); c.LineReads != 2*updates {
		t.Fatalf("major-GC reads = %d lines, want 2 header lines for each of %d rows", c.LineReads, updates)
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
