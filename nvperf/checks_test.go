package main

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"nvcaracal"
	"nvcaracal/internal/metrics"
	"nvcaracal/internal/workload/tpcc"
	"nvcaracal/internal/workload/ycsb"
)

// Each test finishes a small database whose checks pass, corrupts one value
// through an ordinary transaction the model does not see, and expects the
// check to fail.

func openSmall(t *testing.T, w workload) *nvcaracal.DB {
	t.Helper()
	cfg := w.config()
	cfg.NVMMReadLatency, cfg.NVMMWriteLatency, cfg.NVMMFenceLatency = 0, 0, 0
	db, err := nvcaracal.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.load(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// finish loads w, runs epochs batches through the model and checks that
// the untouched state passes.
func finish(t *testing.T, w workload, epochs int) (*nvcaracal.DB, model) {
	t.Helper()
	db := openSmall(t, w)
	m := w.newModel()
	rng := rand.New(rand.NewSource(7))
	for e := 0; e < epochs; e++ {
		b := w.batch(db, rng)
		if _, err := db.RunEpoch(b); err != nil {
			t.Fatal(err)
		}
		m.apply(b)
	}
	if err := m.check(db); err != nil {
		t.Fatalf("check fails before corruption: %v", err)
	}
	return db, m
}

// corrupt runs one transaction, invisible to the model, on (table, key).
func corrupt(t *testing.T, db *nvcaracal.DB, table uint32, key uint64, kind nvcaracal.OpKind, exec func(*nvcaracal.Ctx)) {
	t.Helper()
	txn := &nvcaracal.Txn{
		TypeID: 0x7e57,
		Ops:    []nvcaracal.Op{{Table: table, Key: key, Kind: kind}},
		Exec:   exec,
	}
	if _, err := db.RunEpoch([]*nvcaracal.Txn{txn}); err != nil {
		t.Fatal(err)
	}
}

func smallYCSB(t *testing.T) workload {
	w, err := newYCSB(ycsb.Config{Rows: 600, ValueSize: 1000, UpdateBytes: 100, HotRows: 16, HotOps: 4}, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestYCSBCheckCatchesCorruptByte(t *testing.T) {
	for _, off := range []int{3, 500} { // inside and beyond UpdateBytes
		db, m := finish(t, smallYCSB(t), 5)
		corrupt(t, db, ycsb.Table, 42, nvcaracal.OpUpdate, func(ctx *nvcaracal.Ctx) {
			v, _ := ctx.Read(ycsb.Table, 42)
			v = append([]byte(nil), v...)
			v[off] ^= 1
			ctx.Write(ycsb.Table, 42, v)
		})
		if err := m.check(db); err == nil {
			t.Errorf("byte %d flipped: check passed", off)
		}
	}
}

func TestYCSBVersionCheck(t *testing.T) {
	w := smallYCSB(t)
	var d metrics.Snapshot
	d.TransientVersions, d.PersistentVersions = 7, 13
	if err := w.checkVersions(d, 2); err != nil {
		t.Fatalf("20 versions for 2 txns: %v", err)
	}
	d.PersistentVersions--
	if err := w.checkVersions(d, 2); err == nil {
		t.Fatal("19 versions for 2 txns: check passed")
	}
}

func smallTPCC(t *testing.T) workload {
	w, err := newTPCC(tpcc.Config{Warehouses: 1, Districts: 2, CustomersPerDistrict: 30, Items: 200}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// firstOrder returns the oldest order of district 1/1, and whether it has
// been delivered.
func firstOrder(t *testing.T, db *nvcaracal.DB) (o uint64, delivered bool) {
	t.Helper()
	nv, _ := db.Get(tpcc.TableDistDeliv, tDKey(1, 1))
	next := uint64(i64(nv, 0))
	for o := uint64(1); o <= db.CounterGet(0); o++ {
		if _, ok := db.Get(tpcc.TableOrder, tOKey(1, 1, o)); ok {
			return o, o < next
		}
	}
	t.Fatal("district 1/1 has no order")
	return 0, false
}

// lastOrder returns the newest order of district 1/1, undelivered.
func lastOrder(t *testing.T, db *nvcaracal.DB) uint64 {
	t.Helper()
	nv, _ := db.Get(tpcc.TableDistDeliv, tDKey(1, 1))
	next := uint64(i64(nv, 0))
	for o := db.CounterGet(0); o >= next && o > 0; o-- {
		if _, ok := db.Get(tpcc.TableOrder, tOKey(1, 1, o)); ok {
			return o
		}
	}
	t.Fatal("district 1/1 has no undelivered order")
	return 0
}

func TestTPCCCheckCatchesDistrictYTD(t *testing.T) {
	db, m := finish(t, smallTPCC(t), 10)
	corrupt(t, db, tpcc.TableDistrict, tDKey(1, 2), nvcaracal.OpUpdate, func(ctx *nvcaracal.Ctx) {
		v, _ := ctx.Read(tpcc.TableDistrict, tDKey(1, 2))
		ctx.Write(tpcc.TableDistrict, tDKey(1, 2), binary.LittleEndian.AppendUint64(nil, uint64(i64(v, 0)+1)))
	})
	if err := m.check(db); err == nil {
		t.Fatal("D_YTD raised by one: check passed")
	}
}

func TestTPCCCheckCatchesPaymentSum(t *testing.T) {
	db, m := finish(t, smallTPCC(t), 10)
	m.(*tpccModel).payments++
	if err := m.check(db); err == nil {
		t.Fatal("payments off by one: check passed")
	}
}

func TestTPCCCheckCatchesDroppedOrderLine(t *testing.T) {
	db, m := finish(t, smallTPCC(t), 10)
	o, _ := firstOrder(t, db)
	k := tOLKey(1, 1, o, 2)
	corrupt(t, db, tpcc.TableOrderLine, k, nvcaracal.OpDelete, func(ctx *nvcaracal.Ctx) {
		ctx.Delete(tpcc.TableOrderLine, k)
	})
	if err := m.check(db); err == nil {
		t.Fatal("order line dropped: check passed")
	}
}

func TestTPCCCheckCatchesLostNewOrderRow(t *testing.T) {
	db, m := finish(t, smallTPCC(t), 10)
	k := tOKey(1, 1, lastOrder(t, db))
	corrupt(t, db, tpcc.TableNewOrder, k, nvcaracal.OpDelete, func(ctx *nvcaracal.Ctx) {
		ctx.Delete(tpcc.TableNewOrder, k)
	})
	if err := m.check(db); err == nil {
		t.Fatal("undelivered order lost its NewOrder row: check passed")
	}
}

func TestTPCCCheckCatchesMissingCarrier(t *testing.T) {
	db, m := finish(t, smallTPCC(t), 30)
	o, delivered := firstOrder(t, db)
	if !delivered {
		t.Fatal("no delivered order after 30 epochs")
	}
	k := tOKey(1, 1, o)
	corrupt(t, db, tpcc.TableOrder, k, nvcaracal.OpUpdate, func(ctx *nvcaracal.Ctx) {
		v, _ := ctx.Read(tpcc.TableOrder, k)
		v = append([]byte(nil), v...)
		binary.LittleEndian.PutUint64(v[16:], 0)
		ctx.Write(tpcc.TableOrder, k, v)
	})
	if err := m.check(db); err == nil {
		t.Fatal("delivered order without a carrier: check passed")
	}
}

// TestCrashStep runs the crash step on small databases: the replay count,
// the digest and the state checks all pass on the recovered database.
func TestCrashStep(t *testing.T) {
	for _, w := range []workload{smallYCSB(t), smallTPCC(t)} {
		cfg := w.config()
		cfg.NVMMReadLatency, cfg.NVMMWriteLatency, cfg.NVMMFenceLatency = 0, 0, 0
		db, dev, err := nvcaracal.OpenWithDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.load(db); err != nil {
			t.Fatal(err)
		}
		m := w.newModel()
		rng := rand.New(rand.NewSource(3))
		for e := 0; e < 5; e++ {
			b := w.batch(db, rng)
			if _, err := db.RunEpoch(b); err != nil {
				t.Fatal(err)
			}
			m.apply(b)
		}
		tl := &tally{correct: true}
		rs := &runStats{}
		crashAndRecover(w, db, dev, cfg, 9, m, rs, tl)
		if !tl.correct || tl.failed != 0 || rs.report == nil {
			t.Fatalf("crash step failed: %v", tl.notes)
		}
	}
}

// TestDigestCheckCatchesCorruption: the recovered-digest check compares
// LogicalDigest values, which one corrupted byte changes.
func TestDigestCheckCatchesCorruption(t *testing.T) {
	db, _ := finish(t, smallYCSB(t), 3)
	before := db.LogicalDigest()
	corrupt(t, db, ycsb.Table, 7, nvcaracal.OpUpdate, func(ctx *nvcaracal.Ctx) {
		v, _ := ctx.Read(ycsb.Table, 7)
		v = append([]byte(nil), v...)
		v[900] ^= 0x80
		ctx.Write(ycsb.Table, 7, v)
	})
	if err := wantEq("logical digest", int64(db.LogicalDigest()), int64(before)); err == nil {
		t.Fatal("digest check passed on a corrupted row")
	}
}
