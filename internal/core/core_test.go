package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"nvcaracal/internal/index"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/pmem"
)

// --- test workload: a tiny key-value store with loggable transactions ---

const tblKV = uint32(1)

const (
	ttSet uint16 = iota + 1
	ttInsert
	ttDelete
	ttRMW      // read, append a byte, write back
	ttTransfer // move one byte of "balance" between two rows
	ttAbortSet // aborts before writing if flag set
)

func encSet(key uint64, val []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, key)
	return append(b, val...)
}

func mkSet(key uint64, val []byte) *Txn {
	return &Txn{
		TypeID: ttSet,
		Input:  encSet(key, val),
		Ops:    []Op{{Table: tblKV, Key: key, Kind: OpUpdate}},
		Exec: func(ctx *Ctx) {
			ctx.Write(tblKV, key, val)
		},
	}
}

func mkInsert(key uint64, val []byte) *Txn {
	return &Txn{
		TypeID: ttInsert,
		Input:  encSet(key, val),
		Ops:    []Op{{Table: tblKV, Key: key, Kind: OpInsert}},
		Exec: func(ctx *Ctx) {
			ctx.Insert(tblKV, key, val)
		},
	}
}

func mkDelete(key uint64) *Txn {
	return &Txn{
		TypeID: ttDelete,
		Input:  binary.LittleEndian.AppendUint64(nil, key),
		Ops:    []Op{{Table: tblKV, Key: key, Kind: OpDelete}},
		Exec: func(ctx *Ctx) {
			ctx.Delete(tblKV, key)
		},
	}
}

func mkRMW(key uint64, suffix byte) *Txn {
	return &Txn{
		TypeID: ttRMW,
		Input:  append(binary.LittleEndian.AppendUint64(nil, key), suffix),
		Ops:    []Op{{Table: tblKV, Key: key, Kind: OpUpdate}},
		Exec: func(ctx *Ctx) {
			old, ok := ctx.Read(tblKV, key)
			if !ok {
				old = nil
			}
			ctx.Write(tblKV, key, append(append([]byte(nil), old...), suffix))
		},
	}
}

func mkAbortSet(key uint64, val []byte, abort bool) *Txn {
	in := append(binary.LittleEndian.AppendUint64(nil, key), b2b(abort))
	in = append(in, val...)
	return &Txn{
		TypeID: ttAbortSet,
		Input:  in,
		Ops:    []Op{{Table: tblKV, Key: key, Kind: OpUpdate}},
		Exec: func(ctx *Ctx) {
			if abort {
				ctx.Abort()
				return
			}
			ctx.Write(tblKV, key, val)
		},
	}
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func testRegistry() *Registry {
	r := NewRegistry()
	r.Register(ttSet, func(d []byte, _ *DB) (*Txn, error) {
		return mkSet(binary.LittleEndian.Uint64(d), d[8:]), nil
	})
	r.Register(ttInsert, func(d []byte, _ *DB) (*Txn, error) {
		return mkInsert(binary.LittleEndian.Uint64(d), d[8:]), nil
	})
	r.Register(ttDelete, func(d []byte, _ *DB) (*Txn, error) {
		return mkDelete(binary.LittleEndian.Uint64(d)), nil
	})
	r.Register(ttRMW, func(d []byte, _ *DB) (*Txn, error) {
		return mkRMW(binary.LittleEndian.Uint64(d), d[8]), nil
	})
	r.Register(ttAbortSet, func(d []byte, _ *DB) (*Txn, error) {
		return mkAbortSet(binary.LittleEndian.Uint64(d), d[9:], d[8] == 1), nil
	})
	return r
}

// testOpts returns small-but-real options for unit tests.
func testOpts(cores int) Options {
	l := pmem.Layout{
		Cores:          cores,
		RowSize:        256,
		RowsPerCore:    2048,
		ValueSize:      512,
		ValuesPerCore:  2048,
		RingCap:        8192,
		LogBytes:       1 << 20,
		Counters:       8,
		ScratchPerCore: 1 << 20,
	}
	if err := l.Finalize(); err != nil {
		panic(err)
	}
	return Options{
		Cores:          cores,
		Mode:           ModeNVCaracal,
		Layout:         l,
		CacheEnabled:   true,
		CacheK:         4,
		CacheOnRead:    true,
		MinorGCEnabled: true,
		Registry:       testRegistry(),
	}
}

func openTestDB(t *testing.T, cores int) (*DB, *nvm.Device) {
	t.Helper()
	opts := testOpts(cores)
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, dev
}

func mustRun(t *testing.T, db *DB, batch []*Txn) EpochResult {
	t.Helper()
	res, err := db.RunEpoch(batch)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func wantGet(t *testing.T, db *DB, key uint64, want []byte) {
	t.Helper()
	got, ok := db.Get(tblKV, key)
	if want == nil {
		if ok {
			t.Fatalf("key %d: got %q, want absent", key, got)
		}
		return
	}
	if !ok {
		t.Fatalf("key %d: absent, want %q", key, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("key %d: got %q, want %q", key, got, want)
	}
}

// --- tests ---

func TestInsertAndGet(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{
		mkInsert(1, []byte("one")),
		mkInsert(2, []byte("two")),
	})
	wantGet(t, db, 1, []byte("one"))
	wantGet(t, db, 2, []byte("two"))
	wantGet(t, db, 3, nil)
	if db.RowCount() != 2 {
		t.Fatalf("RowCount = %d", db.RowCount())
	}
}

func TestUpdateAcrossEpochs(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("v1"))})
	mustRun(t, db, []*Txn{mkSet(1, []byte("v2"))})
	wantGet(t, db, 1, []byte("v2"))
	mustRun(t, db, []*Txn{mkSet(1, []byte("v3"))})
	wantGet(t, db, 1, []byte("v3"))
}

func TestSerialOrderWithinEpoch(t *testing.T) {
	// Three RMWs on one key in one epoch must apply in serial order.
	db, _ := openTestDB(t, 4)
	mustRun(t, db, []*Txn{mkInsert(7, []byte("x"))})
	mustRun(t, db, []*Txn{mkRMW(7, 'a'), mkRMW(7, 'b'), mkRMW(7, 'c')})
	wantGet(t, db, 7, []byte("xabc"))
}

func TestIntermediateWritesStayTransient(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(7, []byte("x"))})
	before := db.Metrics()
	mustRun(t, db, []*Txn{mkRMW(7, 'a'), mkRMW(7, 'b'), mkRMW(7, 'c')})
	d := db.Metrics().Sub(before)
	if d.PersistentVersions != 1 {
		t.Fatalf("PersistentVersions = %d, want 1 (only the final write)", d.PersistentVersions)
	}
	if d.TransientVersions != 2 {
		t.Fatalf("TransientVersions = %d, want 2", d.TransientVersions)
	}
}

func TestReadsSeeEarlierWritesInEpoch(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("init"))})
	var t2Saw []byte
	read := &Txn{
		TypeID: ttSet, Input: encSet(99, nil),
		Ops: []Op{{Table: tblKV, Key: 99, Kind: OpInsert}},
		Exec: func(ctx *Ctx) {
			v, _ := ctx.Read(tblKV, 1)
			t2Saw = append([]byte(nil), v...)
			ctx.Insert(tblKV, 99, v)
		},
	}
	mustRun(t, db, []*Txn{mkSet(1, []byte("new")), read})
	if !bytes.Equal(t2Saw, []byte("new")) {
		t.Fatalf("reader saw %q, want %q (the earlier write in the epoch)", t2Saw, "new")
	}
}

func TestReadsDoNotSeeLaterWrites(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("old"))})
	var saw []byte
	read := &Txn{
		TypeID: ttSet, Input: encSet(99, nil),
		Ops: []Op{{Table: tblKV, Key: 99, Kind: OpInsert}},
		Exec: func(ctx *Ctx) {
			v, _ := ctx.Read(tblKV, 1)
			saw = append([]byte(nil), v...)
			ctx.Insert(tblKV, 99, v)
		},
	}
	// Reader (sid 1) before writer (sid 2): must see the pre-epoch value.
	mustRun(t, db, []*Txn{read, mkSet(1, []byte("new"))})
	if !bytes.Equal(saw, []byte("old")) {
		t.Fatalf("reader saw %q, want %q", saw, "old")
	}
}

func TestDelete(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("x")), mkInsert(2, []byte("y"))})
	mustRun(t, db, []*Txn{mkDelete(1)})
	wantGet(t, db, 1, nil)
	wantGet(t, db, 2, []byte("y"))
	if db.RowCount() != 1 {
		t.Fatalf("RowCount = %d", db.RowCount())
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("a"))})
	mustRun(t, db, []*Txn{mkDelete(1)})
	mustRun(t, db, []*Txn{mkInsert(1, []byte("b"))})
	wantGet(t, db, 1, []byte("b"))
}

func TestInsertAndDeleteSameEpoch(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(5, []byte("temp")), mkDelete(5)})
	wantGet(t, db, 5, nil)
	if db.RowCount() != 0 {
		t.Fatalf("RowCount = %d", db.RowCount())
	}
}

func TestDeleteVisibilityWithinEpoch(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("x"))})
	var sawBefore, sawAfter bool
	readBefore := &Txn{
		TypeID: ttSet, Input: encSet(90, nil),
		Ops: []Op{{Table: tblKV, Key: 90, Kind: OpInsert}},
		Exec: func(ctx *Ctx) {
			_, sawBefore = ctx.Read(tblKV, 1)
			ctx.Insert(tblKV, 90, nil)
		},
	}
	readAfter := &Txn{
		TypeID: ttSet, Input: encSet(91, nil),
		Ops: []Op{{Table: tblKV, Key: 91, Kind: OpInsert}},
		Exec: func(ctx *Ctx) {
			_, sawAfter = ctx.Read(tblKV, 1)
			ctx.Insert(tblKV, 91, nil)
		},
	}
	mustRun(t, db, []*Txn{readBefore, mkDelete(1), readAfter})
	if !sawBefore {
		t.Error("reader before delete did not see the row")
	}
	if sawAfter {
		t.Error("reader after delete saw the row")
	}
}

func TestAbortLeavesOldValue(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("keep"))})
	res := mustRun(t, db, []*Txn{mkAbortSet(1, []byte("discard"), true)})
	if res.Aborted != 1 || res.Committed != 0 {
		t.Fatalf("res = %+v", res)
	}
	wantGet(t, db, 1, []byte("keep"))
}

func TestAbortSkippedByReaders(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("base"))})
	var saw []byte
	read := &Txn{
		TypeID: ttSet, Input: encSet(92, nil),
		Ops: []Op{{Table: tblKV, Key: 92, Kind: OpInsert}},
		Exec: func(ctx *Ctx) {
			v, _ := ctx.Read(tblKV, 1)
			saw = append([]byte(nil), v...)
			ctx.Insert(tblKV, 92, nil)
		},
	}
	// writer(ok) < aborter < reader: reader must see writer's value.
	mustRun(t, db, []*Txn{
		mkAbortSet(1, []byte("first"), false),
		mkAbortSet(1, []byte("aborted"), true),
		read,
	})
	if !bytes.Equal(saw, []byte("first")) {
		t.Fatalf("reader saw %q, want %q", saw, "first")
	}
	wantGet(t, db, 1, []byte("first"))
}

func TestAbortedFinalWritePersistsPredecessor(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("base"))})
	// The final (highest-sid) writer aborts; the middle writer's value must
	// become the epoch's persistent version.
	mustRun(t, db, []*Txn{
		mkAbortSet(1, []byte("mid"), false),
		mkAbortSet(1, []byte("final"), true),
	})
	wantGet(t, db, 1, []byte("mid"))
}

func TestFullyAbortedInsertVanishes(t *testing.T) {
	db, _ := openTestDB(t, 2)
	abortIns := &Txn{
		TypeID: ttInsert, Input: encSet(42, []byte("x")),
		Ops: []Op{{Table: tblKV, Key: 42, Kind: OpInsert}},
		Exec: func(ctx *Ctx) {
			ctx.Abort()
		},
	}
	res := mustRun(t, db, []*Txn{abortIns})
	if res.Aborted != 1 {
		t.Fatalf("res = %+v", res)
	}
	wantGet(t, db, 42, nil)
	if db.RowCount() != 0 {
		t.Fatalf("RowCount = %d", db.RowCount())
	}
}

func TestManyTxnsManyCores(t *testing.T) {
	db, _ := openTestDB(t, 4)
	const n = 500
	var load []*Txn
	for i := uint64(0); i < n; i++ {
		load = append(load, mkInsert(i, []byte(fmt.Sprintf("v%d", i))))
	}
	mustRun(t, db, load)
	var upd []*Txn
	for i := uint64(0); i < n; i++ {
		upd = append(upd, mkSet(i, []byte(fmt.Sprintf("u%d", i))))
	}
	mustRun(t, db, upd)
	for i := uint64(0); i < n; i++ {
		wantGet(t, db, i, []byte(fmt.Sprintf("u%d", i)))
	}
}

func TestContendedRMWChain(t *testing.T) {
	// 64 RMWs on one hot key across 4 cores: final value must reflect all
	// of them in serial order.
	db, _ := openTestDB(t, 4)
	mustRun(t, db, []*Txn{mkInsert(1, nil)})
	var batch []*Txn
	want := make([]byte, 0, 64)
	for i := 0; i < 64; i++ {
		b := byte('a' + i%26)
		batch = append(batch, mkRMW(1, b))
		want = append(want, b)
	}
	mustRun(t, db, batch)
	wantGet(t, db, 1, want)
}

// TestEpochBoundaryUnlinksVersionArrays checks that no row keeps a version
// array past its epoch, so the arrays and their versions become garbage at
// the boundary instead of staying reachable until the row is next written.
func TestEpochBoundaryUnlinksVersionArrays(t *testing.T) {
	db, _ := openTestDB(t, 2)
	const n = 16
	var batch []*Txn
	for i := uint64(0); i < n; i++ {
		batch = append(batch, mkInsert(i, []byte{'a'}))
	}
	mustRun(t, db, batch)
	for round := 0; round < 3; round++ {
		batch = batch[:0]
		for i := uint64(0); i < n; i += uint64(round + 1) {
			batch = append(batch, mkRMW(i, 'b'), mkRMW(i, 'c'))
		}
		mustRun(t, db, batch)
		linked := 0
		db.idx.Range(func(_ index.Key, rs *rowState) bool {
			if rs.va.Load() != nil {
				linked++
			}
			return true
		})
		if linked != 0 {
			t.Fatalf("round %d: %d rows still link a version array after the epoch", round, linked)
		}
	}
	for i := uint64(0); i < n; i++ {
		want := []byte{'a'}
		for round := 0; round < 3; round++ {
			if i%uint64(round+1) == 0 {
				want = append(want, 'b', 'c')
			}
		}
		wantGet(t, db, i, want)
	}
}

func TestLargeValuesUseValuePool(t *testing.T) {
	db, _ := openTestDB(t, 2)
	big := bytes.Repeat([]byte{0xAB}, 300) // > inline half (96), < ValueSize
	mustRun(t, db, []*Txn{mkInsert(1, big)})
	wantGet(t, db, 1, big)
	mustRun(t, db, []*Txn{mkSet(1, bytes.Repeat([]byte{0xCD}, 200))})
	wantGet(t, db, 1, bytes.Repeat([]byte{0xCD}, 200))
}

func TestValueTooLargePanics(t *testing.T) {
	db, _ := openTestDB(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized value")
		}
	}()
	db.RunEpoch([]*Txn{mkInsert(1, make([]byte, 4096))})
}

func TestEmptyEpoch(t *testing.T) {
	db, _ := openTestDB(t, 2)
	res := mustRun(t, db, nil)
	if res.Epoch != 1 || res.Committed != 0 {
		t.Fatalf("res = %+v", res)
	}
	if db.Epoch() != 1 {
		t.Fatalf("Epoch = %d", db.Epoch())
	}
}

func TestEmptyValue(t *testing.T) {
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte{})})
	got, ok := db.Get(tblKV, 1)
	if !ok || len(got) != 0 {
		t.Fatalf("Get = %v,%v", got, ok)
	}
}

func TestCounters(t *testing.T) {
	db, _ := openTestDB(t, 2)
	if v := db.CounterAdd(0, 5); v != 0 {
		t.Fatalf("first add returned %d", v)
	}
	if v := db.CounterAdd(0, 3); v != 5 {
		t.Fatalf("second add returned %d", v)
	}
	if db.CounterGet(0) != 8 {
		t.Fatalf("CounterGet = %d", db.CounterGet(0))
	}
}

func TestWriteOutsideDeclaredSetPanics(t *testing.T) {
	db, _ := openTestDB(t, 1)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("x")), mkInsert(2, []byte("y"))})
	bad := &Txn{
		TypeID: ttSet, Input: encSet(1, nil),
		Ops: []Op{{Table: tblKV, Key: 1, Kind: OpUpdate}},
		Exec: func(ctx *Ctx) {
			ctx.Write(tblKV, 2, []byte("oops")) // not declared
		},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.RunEpoch([]*Txn{bad})
}

func TestAbortAfterWritePanics(t *testing.T) {
	db, _ := openTestDB(t, 1)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("x"))})
	bad := &Txn{
		TypeID: ttSet, Input: encSet(1, nil),
		Ops: []Op{{Table: tblKV, Key: 1, Kind: OpUpdate}},
		Exec: func(ctx *Ctx) {
			ctx.Write(tblKV, 1, []byte("w"))
			ctx.Abort()
		},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.RunEpoch([]*Txn{bad})
}

func TestUnperformedDeclaredWriteIsNoop(t *testing.T) {
	// Over-declared write sets (reconnaissance) must not disturb the row.
	db, _ := openTestDB(t, 2)
	mustRun(t, db, []*Txn{mkInsert(1, []byte("keep"))})
	lazy := &Txn{
		TypeID: ttSet, Input: encSet(1, nil),
		Ops:  []Op{{Table: tblKV, Key: 1, Kind: OpUpdate}},
		Exec: func(ctx *Ctx) {}, // declares but never writes
	}
	mustRun(t, db, []*Txn{lazy})
	wantGet(t, db, 1, []byte("keep"))
}

func TestBatchTooLarge(t *testing.T) {
	db, _ := openTestDB(t, 1)
	huge := make([]*Txn, MaxTxnsPerEpoch+1)
	if _, err := db.RunEpoch(huge); err == nil {
		t.Fatal("oversized batch accepted")
	}
}
