package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nvcaracal/internal/index"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/pmem"
)

// testOptsJournal returns testOpts with the persistent index journal on.
func testOptsJournal(cores int, journalBytes int64) Options {
	opts := testOpts(cores)
	opts.PersistIndex = true
	opts.Layout.IndexLogBytes = journalBytes
	if err := opts.Layout.Finalize(); err != nil {
		panic(err)
	}
	return opts
}

func openJournalDB(t *testing.T, cores int, journalBytes int64) (*DB, *nvm.Device, Options) {
	t.Helper()
	opts := testOptsJournal(cores, journalBytes)
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, dev, opts
}

func TestJournalRecoverySkipsScan(t *testing.T) {
	db, dev, opts := openJournalDB(t, 2, 1<<20)
	var load []*Txn
	for i := uint64(0); i < 50; i++ {
		load = append(load, mkInsert(i, []byte{byte(i)}))
	}
	mustRun(t, db, load)
	mustRun(t, db, []*Txn{mkSet(1, []byte("x")), mkDelete(2)})
	dev.Crash(nvm.CrashStrict, 1)

	db2, rep, err := Recover(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedIndexJournal {
		t.Fatal("journal enabled but scan used")
	}
	if rep.RowsScanned != 0 {
		t.Fatalf("RowsScanned = %d with journal", rep.RowsScanned)
	}
	if rep.JournalEntries == 0 {
		t.Fatal("no journal entries replayed")
	}
	wantGet(t, db2, 1, []byte("x"))
	wantGet(t, db2, 2, nil)
	if db2.RowCount() != 49 {
		t.Fatalf("RowCount = %d, want 49", db2.RowCount())
	}
}

func TestJournalRecoveryMatchesScanRecovery(t *testing.T) {
	// Run the identical schedule against a journal DB and a scan DB,
	// crash both at the same fail-point, and require identical recovered
	// state. The fail points spread over the write-backs the scan variant
	// issues in the crashed epoch, measured by a crash-free run, so each
	// one fires inside the epoch in both variants whatever the engine's
	// write-back count.
	type variant struct {
		opts Options
		dev  *nvm.Device
		db   *DB
	}
	mk := func(journal bool) *variant {
		var opts Options
		if journal {
			opts = testOptsJournal(2, 1<<20)
		} else {
			opts = testOpts(2)
		}
		dev := nvm.New(opts.Layout.TotalBytes())
		db, err := Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		var load []*Txn
		for i := uint64(0); i < 20; i++ {
			load = append(load, mkInsert(i, []byte{byte(i)}))
		}
		mustRun(t, db, load)
		mustRun(t, db, []*Txn{mkSet(3, bigVal('q'))}) // non-inline + GC queue
		return &variant{opts: opts, dev: dev, db: db}
	}
	batch := func() []*Txn {
		return []*Txn{mkRMW(0, 'a'), mkRMW(0, 'b'), mkSet(3, bigVal('r')), mkDelete(5), mkInsert(90, []byte("new"))}
	}

	dry := mk(false)
	before := dry.dev.Stats().Flushes
	mustRun(t, dry.db, batch())
	n := dry.dev.Stats().Flushes - before
	if n < 8 {
		t.Fatalf("crashed epoch issues %d write-backs; the schedule needs more to spread fail points over", n)
	}
	for _, failAfter := range []int64{1, n / 4, n / 2, 3 * n / 4, n} {
		vs := []*variant{mk(false), mk(true)}
		for i, v := range vs {
			fired := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if r != nvm.ErrInjectedCrash {
							panic(r)
						}
						fired = true
					}
				}()
				v.dev.SetFailAfter(failAfter)
				v.db.RunEpoch(batch())
			}()
			v.dev.SetFailAfter(0)
			if !fired {
				t.Fatalf("failAfter=%d of %d: fail point did not fire in variant %d (journal=%v)",
					failAfter, n, i, v.opts.PersistIndex)
			}
			v.dev.Crash(nvm.CrashStrict, failAfter)
		}
		dbScan, repScan, err := Recover(vs[0].dev, vs[0].opts)
		if err != nil {
			t.Fatal(err)
		}
		dbJrn, repJrn, err := Recover(vs[1].dev, vs[1].opts)
		if err != nil {
			t.Fatal(err)
		}
		if !repJrn.UsedIndexJournal {
			t.Fatal("journal variant fell back to scan")
		}
		if repScan.ReplayedEpoch != repJrn.ReplayedEpoch {
			t.Fatalf("failAfter=%d: replay divergence scan=%d journal=%d",
				failAfter, repScan.ReplayedEpoch, repJrn.ReplayedEpoch)
		}
		for k := uint64(0); k < 95; k++ {
			v1, ok1 := dbScan.Get(tblKV, k)
			v2, ok2 := dbJrn.Get(tblKV, k)
			if ok1 != ok2 || !bytes.Equal(v1, v2) {
				t.Fatalf("failAfter=%d key=%d: scan %q/%v vs journal %q/%v",
					failAfter, k, v1, ok1, v2, ok2)
			}
		}
	}
}

func TestJournalCompaction(t *testing.T) {
	// A small journal forces snapshot compaction; recovery must still work.
	db, dev, opts := openJournalDB(t, 1, 8192)
	var load []*Txn
	for i := uint64(0); i < 30; i++ {
		load = append(load, mkInsert(i, []byte{byte(i)}))
	}
	mustRun(t, db, load) // ~30 puts = 654 B
	// Many epochs of churn to wrap the 8 KiB region repeatedly.
	for e := 0; e < 40; e++ {
		mustRun(t, db, []*Txn{
			mkSet(uint64(e%30), []byte{byte(e)}),
			mkDelete(uint64((e + 7) % 30)),
			mkInsert(uint64((e+7)%30), []byte{byte(e + 1)}),
		})
	}
	dev.Crash(nvm.CrashStrict, 2)
	db2, rep, err := Recover(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedIndexJournal {
		t.Fatal("compacted journal did not validate")
	}
	if db2.RowCount() != 30 {
		t.Fatalf("RowCount = %d", db2.RowCount())
	}
}

func TestJournalOverflowFallsBackToScan(t *testing.T) {
	// A journal too small even for the snapshot goes sticky-overflow and
	// recovery must take the scan path with a correct result.
	db, dev, opts := openJournalDB(t, 1, 4096)
	var load []*Txn
	for i := uint64(0); i < 400; i++ { // snapshot needs 400*21 B > 4096
		load = append(load, mkInsert(i, []byte{byte(i)}))
	}
	mustRun(t, db, load)
	mustRun(t, db, []*Txn{mkSet(7, []byte("seven"))})
	dev.Crash(nvm.CrashStrict, 3)
	db2, rep, err := Recover(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedIndexJournal {
		t.Fatal("overflowed journal was trusted")
	}
	if rep.RowsScanned != 400 {
		t.Fatalf("RowsScanned = %d", rep.RowsScanned)
	}
	wantGet(t, db2, 7, []byte("seven"))
}

func TestJournalCrashSweep(t *testing.T) {
	// The crash-sweep discipline with the journal enabled: every fail
	// point must recover to an exact epoch boundary.
	pre, post := journalReferenceStates(t)
	committed := false
	for failAfter := int64(1); !committed && failAfter < 5000; failAfter++ {
		db, dev, opts := openJournalDB(t, 2, 1<<20)
		journalLoad(t, db)
		fired := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != nvm.ErrInjectedCrash {
						panic(r)
					}
					fired = true
				}
			}()
			dev.SetFailAfter(failAfter)
			db.RunEpoch(journalSweepBatch())
			dev.SetFailAfter(0)
		}()
		if !fired {
			committed = true
		}
		dev.Crash(nvm.CrashStrict, failAfter)
		db2, rep, err := Recover(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := post
		if fired && rep.ReplayedEpoch == 0 {
			want = pre
		}
		for k, v := range want {
			got, ok := db2.Get(tblKV, k)
			desc := fmt.Sprintf("failAfter=%d journal=%v", failAfter, rep.UsedIndexJournal)
			if v == nil {
				if ok {
					t.Fatalf("%s: key %d present", desc, k)
				}
				continue
			}
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: key %d got %q want %q", desc, k, got, v)
			}
		}
	}
	if !committed {
		t.Fatal("sweep never completed")
	}
}

// journalSweepBatch mirrors the core_test crash-sweep batch with the
// package-internal builders (this file's registry decodes their type ids;
// the kit's ids would not replay here).
func journalSweepBatch() []*Txn {
	return []*Txn{
		mkRMW(0, 'a'),
		mkRMW(0, 'b'),
		mkSet(1, bytes.Repeat([]byte{0xEE}, 200)),
		mkDelete(2),
		mkInsert(50, []byte("fresh")),
		mkAbortSet(3, []byte("discard"), true),
		mkRMW(4, 'z'),
	}
}

func journalSnapshotKV(db *DB) map[uint64][]byte {
	m := map[uint64][]byte{}
	for k := uint64(0); k < 60; k++ {
		if v, ok := db.Get(tblKV, k); ok {
			m[k] = append([]byte(nil), v...)
		} else {
			m[k] = nil
		}
	}
	return m
}

func journalLoad(t *testing.T, db *DB) {
	t.Helper()
	var load []*Txn
	for i := uint64(0); i < 6; i++ {
		load = append(load, mkInsert(i, []byte{byte('A' + i)}))
	}
	mustRun(t, db, load)
	mustRun(t, db, []*Txn{
		mkSet(1, bytes.Repeat([]byte{0xDD}, 180)),
		mkRMW(0, 'x'),
	})
}

func journalReferenceStates(t *testing.T) (pre, post map[uint64][]byte) {
	t.Helper()
	db, _, _ := openJournalDB(t, 2, 1<<20)
	journalLoad(t, db)
	pre = journalSnapshotKV(db)
	mustRun(t, db, journalSweepBatch())
	post = journalSnapshotKV(db)
	return pre, post
}

func TestJournalValidateRequiresLoggingMode(t *testing.T) {
	opts := testOptsJournal(1, 1<<16)
	opts.Mode = ModeNoLogging
	dev := nvm.New(opts.Layout.TotalBytes())
	if _, err := Open(dev, opts); err == nil {
		t.Fatal("PersistIndex accepted without logging mode")
	}
	opts2 := testOpts(1)
	opts2.PersistIndex = true // but no journal region
	dev2 := nvm.New(opts2.Layout.TotalBytes())
	if _, err := Open(dev2, opts2); err == nil {
		t.Fatal("PersistIndex accepted without journal region")
	}
}

func TestJournalDisabledDeviceRecoveredWithScan(t *testing.T) {
	// A DB run WITHOUT journaling, recovered with a journal-less config,
	// still works (baseline sanity for the guard logic).
	db, dev := openTestDB(t, 1)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("v"))})
	dev.Crash(nvm.CrashStrict, 1)
	db2, rep := recoverTestDB(t, dev, 1)
	if rep.UsedIndexJournal {
		t.Fatal("no journal region but journal path used")
	}
	wantGet(t, db2, 1, []byte("v"))
}

// TestResolveGCRowsMatchesOrderedReplay checks the journal path's GC-list
// resolution against applying every entry in journal order with a full
// slot map, as recovery did before it rebuilt the index on all cores: a GC
// entry resolves to the row whose put last claimed its slot, unless that
// row's key was deleted in between. Random journals over few keys and
// slots make reused slots and re-put keys common.
func TestResolveGCRowsMatchesOrderedReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		entries := make([]pmem.IndexEntry, 1+rng.Intn(24))
		puts := make([]*rowState, len(entries))
		for i := range entries {
			e := pmem.IndexEntry{Kind: []uint8{pmem.IdxPut, pmem.IdxDel, pmem.IdxGC}[rng.Intn(3)],
				Table: 1, Key: uint64(rng.Intn(4)), RowOff: int64(64 * rng.Intn(4))}
			if e.Kind == pmem.IdxPut {
				puts[i] = &rowState{nvOff: e.RowOff}
			}
			entries[i] = e
		}

		var want []*rowState
		idx := make(map[index.Key]*rowState)
		slotOwner := make(map[int64]*rowState)
		for i, e := range entries {
			key := index.Key{Table: e.Table, ID: e.Key}
			switch e.Kind {
			case pmem.IdxPut:
				idx[key] = puts[i]
				slotOwner[e.RowOff] = puts[i]
			case pmem.IdxDel:
				if rs, ok := idx[key]; ok {
					delete(slotOwner, rs.nvOff)
				}
				delete(idx, key)
			case pmem.IdxGC:
				if rs, ok := slotOwner[e.RowOff]; ok {
					want = append(want, rs)
				}
			}
		}

		pending := pendingGCSlots(entries)
		states := make([]*rowState, len(entries))
		for i, e := range entries {
			if _, ok := pending[e.RowOff]; ok {
				states[i] = puts[i]
			}
		}
		got := resolveGCRows(entries, states, pending)
		if len(got) != len(want) {
			t.Fatalf("round %d: resolved %d GC rows, want %d (entries %+v)", round, len(got), len(want), entries)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: GC row %d resolved to slot %d, want slot %d (entries %+v)",
					round, i, got[i].nvOff, want[i].nvOff, entries)
			}
		}
	}
}
