package core

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

func newRowRef(t *testing.T, rowSize int64) (rowRef, *nvm.Device) {
	t.Helper()
	dev := nvm.New(rowSize * 4)
	return rowRef{dev: dev.Tag(obs.CauseOther), off: rowSize, rowSize: rowSize}, dev
}

func TestRowHeaderRoundTrip(t *testing.T) {
	r, _ := newRowRef(t, 256)
	r.writeHeader(7, 0xDEADBEEF)
	h := r.header()
	if h.table != 7 || h.key != 0xDEADBEEF {
		t.Fatalf("header = %d/%d", h.table, h.key)
	}
	// Header write must clear stale version descriptors.
	if v := h.v1; !v.isNull() || v.ptr != 0 {
		t.Fatalf("v1 not cleared: %+v", v)
	}
	if v := h.v2; !v.isNull() {
		t.Fatalf("v2 not cleared: %+v", v)
	}
}

func TestRowHeaderClearsRecycledSlot(t *testing.T) {
	r, _ := newRowRef(t, 256)
	r.writeVersion(2, version{sid: 99, ptr: 4096, size: 10})
	r.writeHeader(1, 1)
	if v := readVer(r, 2); !v.isNull() || v.ptr != 0 || v.size != 0 {
		t.Fatalf("recycled slot kept stale version: %+v", v)
	}
}

// readVer returns descriptor 1 or 2 of the row's header.
func readVer(r rowRef, which int) version {
	h := r.header()
	if which == 1 {
		return h.v1
	}
	return h.v2
}

// repairRow runs repair on the row's current header and checks that the
// header it returns is the one now on the device.
func repairRow(t *testing.T, r rowRef, crashed uint64) bool {
	t.Helper()
	h, fixed := r.repair(r.header(), crashed)
	if now := r.header(); h != now {
		t.Fatalf("repair returned header %+v, device holds %+v", h, now)
	}
	return fixed
}

func TestVersionRoundTrip(t *testing.T) {
	r, _ := newRowRef(t, 256)
	want := version{sid: MakeSID(3, 7), ptr: ptrInlineB, size: 42}
	r.writeVersion(2, want)
	if got := readVer(r, 2); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestInlineOffsets(t *testing.T) {
	r, _ := newRowRef(t, 256)
	half := r.inlineHalf()
	if half != (256-64)/2 {
		t.Fatalf("inlineHalf = %d", half)
	}
	a := r.inlineOff(ptrInlineA)
	b := r.inlineOff(ptrInlineB)
	if a != r.off+64 || b != a+half {
		t.Fatalf("inline offsets a=%d b=%d", a, b)
	}
}

func TestInlineSlotsDoNotOverlap(t *testing.T) {
	r, _ := newRowRef(t, 256)
	half := int(r.inlineHalf())
	va := version{ptr: ptrInlineA, size: uint32(half)}
	vb := version{ptr: ptrInlineB, size: uint32(half)}
	r.writeFinal(1, ptrInlineA, bytes.Repeat([]byte{0xAA}, half))
	r.writeFinal(2, ptrInlineB, bytes.Repeat([]byte{0xBB}, half))
	if !bytes.Equal(r.readValue(va), bytes.Repeat([]byte{0xAA}, half)) {
		t.Fatal("slot A corrupted by slot B write")
	}
	if !bytes.Equal(r.readValue(vb), bytes.Repeat([]byte{0xBB}, half)) {
		t.Fatal("slot B corrupted")
	}
}

func TestFreeInlineSlot(t *testing.T) {
	if freeInlineSlot(version{ptr: ptrInlineA}) != ptrInlineB {
		t.Fatal("A -> want B")
	}
	if freeInlineSlot(version{ptr: ptrInlineB}) != ptrInlineA {
		t.Fatal("B -> want A")
	}
	if freeInlineSlot(version{ptr: 4096}) != ptrInlineA {
		t.Fatal("non-inline -> want A")
	}
	if freeInlineSlot(version{}) != ptrInlineA {
		t.Fatal("null -> want A")
	}
}

func TestLatestPrefersV2(t *testing.T) {
	r, _ := newRowRef(t, 256)
	r.writeHeader(1, 1)
	if !r.header().latest(0).isNull() {
		t.Fatal("fresh row has a latest version")
	}
	v1 := version{sid: MakeSID(1, 1), ptr: ptrInlineA, size: 4}
	r.writeVersion(1, v1)
	if r.header().latest(0) != v1 {
		t.Fatal("latest != v1 when v2 empty")
	}
	v2 := version{sid: MakeSID(2, 1), ptr: ptrInlineB, size: 4}
	r.writeVersion(2, v2)
	if r.header().latest(0) != v2 {
		t.Fatal("latest != v2")
	}
}

func TestRepairCase1FinishesGCCopy(t *testing.T) {
	r, _ := newRowRef(t, 256)
	r.writeHeader(1, 1)
	// GC intended: v1 <- v2. Crash left v1.sid updated, pointer stale.
	v2 := version{sid: MakeSID(4, 9), ptr: 8192, size: 100}
	r.writeVersion(2, v2)
	r.writeVersion(1, version{sid: v2.sid, ptr: ptrInlineA, size: 7}) // torn copy
	if !repairRow(t, r, 6) {
		t.Fatal("repair did not fire")
	}
	if got := readVer(r, 1); got != v2 {
		t.Fatalf("v1 = %+v, want %+v", got, v2)
	}
}

func TestRepairCase1SkipsCrashedEpochSIDs(t *testing.T) {
	r, _ := newRowRef(t, 256)
	r.writeHeader(1, 1)
	sid := MakeSID(6, 1) // the crashed epoch itself
	r.writeVersion(2, version{sid: sid, ptr: 8192, size: 10})
	r.writeVersion(1, version{sid: sid, ptr: ptrInlineA, size: 7})
	if repairRow(t, r, 6) {
		t.Fatal("repair fired on crashed-epoch sids (case 3 belongs to replay)")
	}
}

func TestRepairCase2FinishesReset(t *testing.T) {
	r, dev := newRowRef(t, 256)
	r.writeHeader(1, 1)
	r.writeVersion(1, version{sid: MakeSID(2, 1), ptr: ptrInlineA, size: 4})
	// Torn reset: sid cleared, pointer remains.
	dev.Store64(r.verOff(2)+verSID, 0)
	dev.Store64(r.verOff(2)+verPtr, 8192)
	dev.Store32(r.verOff(2)+verSize, 55)
	if !repairRow(t, r, 6) {
		t.Fatal("repair did not fire")
	}
	if got := readVer(r, 2); got.ptr != 0 || got.size != 0 {
		t.Fatalf("v2 not reset: %+v", got)
	}
}

func TestRepairNoopOnConsistentRows(t *testing.T) {
	r, _ := newRowRef(t, 256)
	r.writeHeader(1, 1)
	r.writeVersion(1, version{sid: MakeSID(2, 1), ptr: ptrInlineA, size: 4})
	r.writeVersion(2, version{sid: MakeSID(3, 1), ptr: ptrInlineB, size: 4})
	if repairRow(t, r, 6) {
		t.Fatal("repair modified a consistent row")
	}
}

func TestRevertCrashedVersion(t *testing.T) {
	r, _ := newRowRef(t, 256)
	r.writeHeader(1, 1)
	r.writeVersion(1, version{sid: MakeSID(2, 1), ptr: ptrInlineA, size: 4})
	r.writeVersion(2, version{sid: MakeSID(6, 3), ptr: ptrInlineB, size: 4})
	if !r.revertCrashedVersion(6) {
		t.Fatal("revert did not fire for crashed-epoch v2")
	}
	if !readVer(r, 2).isNull() {
		t.Fatal("v2 not reverted")
	}
	// Idempotent / selective.
	if r.revertCrashedVersion(6) {
		t.Fatal("revert fired twice")
	}
	r.writeVersion(2, version{sid: MakeSID(5, 1), ptr: ptrInlineB, size: 4})
	if r.revertCrashedVersion(6) {
		t.Fatal("revert fired on a committed version")
	}
}

func TestValueRoundTripNonInline(t *testing.T) {
	r, _ := newRowRef(t, 256)
	data := []byte("external value data")
	ptr := uint64(768) // elsewhere on the device
	r.writeFinal(1, ptr, data)
	v := version{sid: 1, ptr: ptr, size: uint32(len(data))}
	if !bytes.Equal(r.readValue(v), data) {
		t.Fatal("non-inline value corrupted")
	}
	dst := make([]byte, len(data))
	r.readValueInto(v, dst)
	if !bytes.Equal(dst, data) {
		t.Fatal("readValueInto mismatch")
	}
}

func TestQuickVersionDescriptorRoundTrip(t *testing.T) {
	r, _ := newRowRef(t, 256)
	f := func(sid, ptr uint64, size uint32, which bool) bool {
		w := 1
		if which {
			w = 2
		}
		want := version{sid: sid, ptr: ptr, size: size}
		r.writeVersion(w, want)
		return readVer(r, w) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- version array unit tests ---

func mkVA(sids ...uint64) *versionArray {
	all := append([]uint64{0}, sids...)
	return newVersionArray(1, all, nil)
}

func TestVASlotOf(t *testing.T) {
	va := mkVA(5, 9, 12, 40)
	for i, sid := range []uint64{5, 9, 12, 40} {
		if got := va.slotOf(sid); got != i+1 {
			t.Fatalf("slotOf(%d) = %d, want %d", sid, got, i+1)
		}
	}
}

func TestVASlotOfMissingPanics(t *testing.T) {
	va := mkVA(5, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	va.slotOf(7)
}

func TestVAReadSlot(t *testing.T) {
	va := mkVA(5, 9, 12)
	cases := map[uint64]int{
		1:  0, // below all writers: initial
		5:  0, // own writer sees predecessors only
		6:  1,
		9:  1,
		10: 2,
		12: 2,
		13: 3,
		99: 3,
	}
	for sid, want := range cases {
		if got := va.readSlot(sid); got != want {
			t.Fatalf("readSlot(%d) = %d, want %d", sid, got, want)
		}
	}
}

func TestVAResolveSkipsIgnores(t *testing.T) {
	va := mkVA(5, 9, 12)
	va.vals[0].Store(&versionVal{kind: vkData, data: []byte("init"), nvOff: -1})
	va.vals[1].Store(&versionVal{kind: vkData, data: []byte("v5"), nvOff: -1})
	va.vals[2].Store(ignoreVal)
	va.vals[3].Store(ignoreVal)
	got := va.resolveRead(99)
	if !bytes.Equal(got.data, []byte("v5")) {
		t.Fatalf("resolveRead skipped to %q", got.data)
	}
	if got := va.resolveRead(9); !bytes.Equal(got.data, []byte("v5")) {
		t.Fatalf("resolveRead(9) = %q", got.data)
	}
	if got := va.resolveRead(5); !bytes.Equal(got.data, []byte("init")) {
		t.Fatalf("resolveRead(5) = %q", got.data)
	}
}

func TestVALatestCommitted(t *testing.T) {
	va := mkVA(5, 9)
	va.vals[0].Store(notFoundVal)
	va.vals[1].Store(&versionVal{kind: vkData, data: []byte("x"), nvOff: -1})
	va.vals[2].Store(ignoreVal)
	idx, vv := va.latestCommitted(2)
	if idx != 1 || vv.kind != vkData {
		t.Fatalf("latestCommitted = %d/%v", idx, vv.kind)
	}
}

// waitParked blocks until n readers are parked on g.
func waitParked(t *testing.T, g *waitGate, n int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.parked.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d readers parked, want %d", g.parked.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestVAWaitParksUntilPublish(t *testing.T) {
	g := &waitGate{}
	va := newVersionArray(1, []uint64{0, 5, 9}, g)
	va.vals[0].Store(notFoundVal)
	got := make(chan *versionVal)
	go func() { got <- va.waitValue(2) }()
	waitParked(t, g, 1)
	// A publish of another slot wakes the reader, which parks again.
	va.publish(1, ignoreVal)
	waitParked(t, g, 1)
	want := &versionVal{kind: vkData, data: []byte("v9"), nvOff: -1}
	va.publish(2, want)
	if v := <-got; v != want {
		t.Fatalf("waitValue returned %v, want the published value", v)
	}
	waitParked(t, g, 0)
}

func TestVAWaitUnwinds(t *testing.T) {
	g := &waitGate{}
	va := newVersionArray(1, []uint64{0, 5}, g)
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		va.waitValue(1)
	}()
	waitParked(t, g, 1)
	g.unwind()
	if r := <-recovered; r != errEpochUnwound {
		t.Fatalf("parked reader unwound with %v, want errEpochUnwound", r)
	}
	g.reset()
	va.publish(1, deletedVal)
	if v := va.waitValue(1); v != deletedVal {
		t.Fatalf("waitValue after reset = %v", v)
	}
}

func TestCacheHotOnly(t *testing.T) {
	opts := testOpts(1)
	opts.CacheHotOnly = true
	opts.CacheOnRead = false
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func(txns ...*Txn) {
		if _, err := db.RunEpoch(txns); err != nil {
			t.Fatal(err)
		}
	}
	run(mkInsert(1, smallVal('a')), mkInsert(2, smallVal('b')))
	// Cold: single write per row -> no cached version.
	run(mkSet(1, smallVal('c')))
	if n := db.Metrics().CacheEntries; n != 0 {
		t.Fatalf("cold row cached: entries = %d", n)
	}
	// Hot: two writes to the same row in one epoch -> cached.
	run(mkRMW(2, 'x'), mkRMW(2, 'y'))
	if n := db.Metrics().CacheEntries; n != 1 {
		t.Fatalf("hot row not cached: entries = %d", n)
	}
	// Previously cached rows stay cached even with one write.
	run(mkSet(2, smallVal('z')))
	if n := db.Metrics().CacheEntries; n != 1 {
		t.Fatalf("wasCached row dropped: entries = %d", n)
	}
	wantGet(t, db, 1, smallVal('c'))
	wantGet(t, db, 2, smallVal('z'))
}
