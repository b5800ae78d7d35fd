package pmem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"nvcaracal/internal/nvm"
)

func testLayout(t *testing.T) (Layout, *nvm.Device) {
	t.Helper()
	l := Layout{
		Cores:         2,
		RowSize:       256,
		RowsPerCore:   64,
		ValueSize:     512,
		ValuesPerCore: 64,
		RingCap:       256,
		LogBytes:      4096,
		Counters:      4,
	}
	if err := l.Finalize(); err != nil {
		t.Fatal(err)
	}
	dev := nvm.New(l.TotalBytes())
	if err := Format(dev, l); err != nil {
		t.Fatal(err)
	}
	return l, dev
}

func TestFormatAttach(t *testing.T) {
	l, dev := testLayout(t)
	if _, err := Attach(dev, l); err != nil {
		t.Fatalf("attach: %v", err)
	}
}

func TestAttachUnformatted(t *testing.T) {
	l := DefaultLayout(1, 16, 16)
	dev := nvm.New(l.TotalBytes())
	if _, err := Attach(dev, l); err == nil {
		t.Fatal("attach to unformatted device succeeded")
	}
}

func TestAttachParamMismatch(t *testing.T) {
	l, dev := testLayout(t)
	bad := l
	bad.RowsPerCore = 128
	if err := bad.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dev, bad); err == nil {
		t.Fatal("attach with mismatched params succeeded")
	}
}

func TestLayoutValidation(t *testing.T) {
	cases := []func(*Layout){
		func(l *Layout) { l.Cores = 0 },
		func(l *Layout) { l.RowSize = 100 }, // not line multiple
		func(l *Layout) { l.ValueSize = 0 },
		func(l *Layout) { l.RowsPerCore = 0 },
		func(l *Layout) { l.RingCap = 0 },
		func(l *Layout) { l.LogBytes = 16 },
		func(l *Layout) { l.Counters = -1 },
	}
	for i, mutate := range cases {
		l := DefaultLayout(1, 16, 16)
		mutate(&l)
		if err := l.Finalize(); err == nil {
			t.Errorf("case %d: bad layout accepted", i)
		}
	}
}

func TestBumpAllocSequential(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	prev := int64(-1)
	for i := 0; i < 10; i++ {
		off, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && off != prev+l.RowSize {
			t.Fatalf("alloc %d: off %d, want %d", i, off, prev+l.RowSize)
		}
		prev = off
	}
	if p.Bump() != 10 {
		t.Fatalf("bump = %d", p.Bump())
	}
}

func TestPoolExhaustion(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	for i := int64(0); i < l.RowsPerCore; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("err = %v, want ErrPoolFull", err)
	}
}

func TestFreedSlotNotReusedBeforeCheckpoint(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	off, _ := p.Alloc()
	p.Free(off)
	// Invariant 2: the freed slot must come from the bump region, not the
	// just-freed entry.
	got, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got == off {
		t.Fatal("slot freed in current epoch was reallocated")
	}
}

func TestFreedSlotReusedAfterCheckpoint(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	off, _ := p.Alloc()
	p.Free(off)
	p.Checkpoint(1)
	dev.Fence()
	p.Checkpointed()
	got, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got != off {
		t.Fatalf("alloc after checkpoint = %d, want recycled %d", got, off)
	}
}

// runEpoch checkpoints the pool and persists the epoch record the way the
// engine does at an epoch boundary.
func runCheckpoint(dev *nvm.Device, rec *EpochRecord, epoch uint64, pools ...*Pool) {
	for _, p := range pools {
		p.Checkpoint(epoch)
	}
	dev.Fence()
	rec.Store(epoch)
	for _, p := range pools {
		p.Checkpointed()
	}
}

func TestCrashRevertsUncheckpointedAllocations(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := RowPool(dev, l, 0)

	// Epoch 1: allocate 3 slots and checkpoint.
	for i := 0; i < 3; i++ {
		p.Alloc()
	}
	runCheckpoint(dev, rec, 1, p)

	// Epoch 2: allocate 5 more, free one, crash without checkpoint.
	for i := 0; i < 5; i++ {
		p.Alloc()
	}
	off := p.dataOff // free the first slot
	p.Free(off)
	dev.Crash(nvm.CrashStrict, 42)

	ckpt := rec.Load()
	if ckpt != 1 {
		t.Fatalf("checkpointed epoch = %d, want 1", ckpt)
	}
	p2 := RowPool(dev, l, 0)
	gc := p2.Recover(ckpt, true)
	if len(gc) != 0 {
		t.Fatalf("unexpected GC frees: %v", gc)
	}
	if p2.Bump() != 3 {
		t.Fatalf("recovered bump = %d, want 3", p2.Bump())
	}
	if p2.FreeCount() != 0 {
		t.Fatalf("recovered free count = %d, want 0 (free was reverted)", p2.FreeCount())
	}
}

// TestCheckpointSkipsUnchangedParitySlot checks that a checkpoint whose
// parity slot already holds the pool's bump/head/tail stores and writes
// back nothing, that recovery still reads the right values, and that after
// Recover only the parity it read is known: the other one is written by its
// next checkpoint even when nothing changed.
func TestCheckpointSkipsUnchangedParitySlot(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := RowPool(dev, l, 0)
	ckpt := func(p *Pool, epoch uint64) nvm.Stats {
		t.Helper()
		before := dev.Stats()
		p.Checkpoint(epoch)
		st := dev.Stats().Sub(before)
		dev.Fence()
		rec.Store(epoch)
		p.Checkpointed()
		return st
	}
	for i := 0; i < 3; i++ {
		p.Alloc()
	}
	for epoch := uint64(1); epoch <= 2; epoch++ {
		if st := ckpt(p, epoch); st.Flushes != 1 {
			t.Fatalf("epoch %d: %d write-backs, want 1 (first checkpoint of its parity)", epoch, st.Flushes)
		}
	}
	if st := ckpt(p, 3); st.Flushes != 0 || st.LineWrites != 0 {
		t.Fatalf("unchanged epoch 3: %d write-backs, %d line writes, want none", st.Flushes, st.LineWrites)
	}
	p.Alloc()
	if st := ckpt(p, 4); st.Flushes != 1 || st.LineWrites != 3 {
		t.Fatalf("epoch 4 after an alloc: %d write-backs, %d line writes, want 1 and 3", st.Flushes, st.LineWrites)
	}
	if st := ckpt(p, 5); st.Flushes != 1 {
		t.Fatalf("epoch 5: %d write-backs, want 1 (its slot still holds epoch 3's bump)", st.Flushes)
	}
	if st := ckpt(p, 6); st.Flushes != 0 {
		t.Fatalf("unchanged epoch 6: %d write-backs, want 0", st.Flushes)
	}

	dev.Crash(nvm.CrashStrict, 1)
	p2 := RowPool(dev, l, 0)
	p2.Recover(rec.Load(), true)
	if p2.Bump() != 4 {
		t.Fatalf("recovered bump = %d, want 4", p2.Bump())
	}
	if st := ckpt(p2, 7); st.Flushes != 1 {
		t.Fatalf("epoch 7 after recovery: %d write-backs, want 1 (the other parity is unknown)", st.Flushes)
	}
	if st := ckpt(p2, 8); st.Flushes != 0 {
		t.Fatalf("epoch 8 after recovery: %d write-backs, want 0 (Recover read this parity)", st.Flushes)
	}
}

func TestCrashPreservesCheckpointedFrees(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := RowPool(dev, l, 0)

	a, _ := p.Alloc()
	b, _ := p.Alloc()
	p.Free(a)
	p.Free(b)
	runCheckpoint(dev, rec, 1, p)

	// Epoch 2 consumes one free entry, then crashes.
	got, _ := p.Alloc()
	if got != a {
		t.Fatalf("alloc = %d, want %d", got, a)
	}
	dev.Crash(nvm.CrashStrict, 7)

	p2 := RowPool(dev, l, 0)
	p2.Recover(rec.Load(), true)
	// The consume must be reverted: both entries back on the list.
	if p2.FreeCount() != 2 {
		t.Fatalf("free count = %d, want 2", p2.FreeCount())
	}
	fs := p2.FreeSet()
	if _, ok := fs[a]; !ok {
		t.Errorf("slot %d missing from free set", a)
	}
	if _, ok := fs[b]; !ok {
		t.Errorf("slot %d missing from free set", b)
	}
}

func TestGCEntriesAdoptedAfterCrash(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)

	a, _ := p.Alloc()
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)

	// Epoch 2: major GC frees a and b as stamped entries and fences them
	// durable (the init fence); then a transaction frees c (revertible);
	// then crash during execution.
	p.FreeGC(a, 2)
	p.FreeGC(b, 2)
	p.FlushRing()
	dev.Fence()
	p.Free(c)
	dev.Crash(nvm.CrashStrict, 9)

	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 2 || gc[0] != a || gc[1] != b {
		t.Fatalf("gc frees = %v, want [%d %d]", gc, a, b)
	}
	fs := p2.FreeSet()
	if _, ok := fs[a]; !ok {
		t.Error("GC-freed slot a lost")
	}
	if _, ok := fs[b]; !ok {
		t.Error("GC-freed slot b lost")
	}
	if _, ok := fs[c]; ok {
		t.Error("transaction free c survived crash (should revert)")
	}
	// Invariant: GC-freed slots must not be allocatable during replay of
	// the crashed epoch (tailCkpt is the old checkpoint tail).
	off, err := p2.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if off == a || off == b {
		t.Fatalf("GC-freed slot %d reallocated during replay window", off)
	}
}

func TestGCEntriesNotAdoptedWithoutReplay(t *testing.T) {
	// Same durable GC entries as above, but the recovery decides the
	// crashed epoch will not be replayed (its log never became durable):
	// the entries must be reverted, not adopted, because the rows that
	// referenced the freed slots were never rewritten.
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)
	p.FreeGC(a, 2)
	p.FreeGC(b, 2)
	p.FlushRing()
	dev.Fence()
	dev.Crash(nvm.CrashStrict, 11)

	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), false)
	if len(gc) != 0 {
		t.Fatalf("gc frees adopted without replay: %v", gc)
	}
	if p2.FreeCount() != 0 {
		t.Fatalf("free count = %d, want 0 (frees of the vanished epoch reverted)", p2.FreeCount())
	}
}

func TestGCEntriesPartialLandingAdoptsPrefix(t *testing.T) {
	// Only the fenced prefix of the crashed epoch's GC entries survives a
	// strict crash; the scan must adopt exactly that prefix.
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)
	p.FreeGC(a, 2)
	p.FlushRing()
	dev.Fence()
	p.FreeGC(b, 2) // written but never flushed: lost in a strict crash
	dev.Crash(nvm.CrashStrict, 13)

	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 1 || gc[0] != a {
		t.Fatalf("gc frees = %v, want [%d]", gc, a)
	}
}

func TestGCEntriesIgnoredWhenStale(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	// Epoch 1's GC entry, durable and then consumed by epoch 1's
	// checkpoint: the recovery scan for epoch 2's entries starts past it.
	p.FreeGC(a, 1)
	p.FlushRing()
	dev.Fence()
	runCheckpoint(dev, rec, 1, p)
	// Crash in epoch 2 before its GC appends anything.
	dev.Crash(nvm.CrashStrict, 3)
	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 0 {
		t.Fatalf("stale GC entries adopted: %v", gc)
	}
	if p2.FreeCount() != 1 {
		t.Fatalf("free count = %d, want 1", p2.FreeCount())
	}
}

func TestGCEntryWrongEpochNotAdopted(t *testing.T) {
	// A durable GC entry stamped for the wrong epoch (here: the already
	// checkpointed epoch 1, sitting beyond the checkpointed tail after a
	// torn checkpoint sequence) must fail the stamp check.
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := ValuePool(dev, l, 0, 0)
	a, _ := p.Alloc()
	runCheckpoint(dev, rec, 1, p)
	p.FreeGC(a, 1) // stamped epoch 1; recovery of ckpt=1 adopts only epoch-2 stamps
	p.FlushRing()
	dev.Fence()
	dev.Crash(nvm.CrashStrict, 5)
	p2 := ValuePool(dev, l, 0, 0)
	gc := p2.Recover(rec.Load(), true)
	if len(gc) != 0 {
		t.Fatalf("wrong-epoch GC entry adopted: %v", gc)
	}
}

func TestRingOverflowPanics(t *testing.T) {
	l, dev := testLayout(t)
	p := RowPool(dev, l, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected ring overflow panic")
		}
	}()
	for i := int64(0); i <= l.RingCap; i++ {
		p.Free(p.dataOff) // same slot repeatedly; only ring accounting matters
	}
}

func TestRingWraparound(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	p := RowPool(dev, l, 0)
	// Cycle more entries than the ring capacity across epochs to force
	// wraparound, checkpointing each round so entries can be consumed.
	epoch := uint64(1)
	off, _ := p.Alloc()
	for i := int64(0); i < l.RingCap*3; i++ {
		p.Free(off)
		runCheckpoint(dev, rec, epoch, p)
		epoch++
		got, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if got != off {
			t.Fatalf("round %d: got %d, want %d", i, got, off)
		}
	}
}

func TestEpochRecord(t *testing.T) {
	l, dev := testLayout(t)
	rec := NewEpochRecord(dev, l)
	if rec.Load() != 0 {
		t.Fatalf("fresh record = %d", rec.Load())
	}
	rec.Store(7)
	dev.Crash(nvm.CrashStrict, 1)
	if rec.Load() != 7 {
		t.Fatalf("record after crash = %d, want 7", rec.Load())
	}
}

func TestCounters(t *testing.T) {
	l, dev := testLayout(t)
	c := NewCounter(dev, l, 2)
	c.Store(123, 1)
	c.Flush()
	dev.Fence()
	dev.Crash(nvm.CrashStrict, 1)
	if got := NewCounter(dev, l, 2).Load(1); got != 123 {
		t.Fatalf("counter = %d, want 123", got)
	}
	// The parity slots are independent: epoch 2's checkpoint must not
	// clobber the value recovery reads when epoch 2 doesn't commit.
	c.Store(456, 2)
	c.Flush()
	if got := c.Load(1); got != 123 {
		t.Fatalf("epoch-1 slot = %d after epoch-2 store, want 123", got)
	}
	if got := c.Load(2); got != 456 {
		t.Fatalf("epoch-2 slot = %d, want 456", got)
	}
}

func TestCounterOutOfRangePanics(t *testing.T) {
	l, _ := testLayout(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.CounterOff(l.Counters)
}

// TestQuickCrashRecoverMatchesModel drives a random alloc/free/checkpoint
// schedule against both the pool and a pure-DRAM model, crashes at a random
// point, and verifies the recovered pool matches the model's state at the
// last checkpoint.
func TestQuickCrashRecoverMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Layout{
			Cores: 1, RowSize: 256, RowsPerCore: 128, ValueSize: 256,
			ValuesPerCore: 16, RingCap: 512, LogBytes: 4096, Counters: 0,
		}
		if err := l.Finalize(); err != nil {
			t.Fatal(err)
		}
		dev := nvm.New(l.TotalBytes())
		if err := Format(dev, l); err != nil {
			t.Fatal(err)
		}
		rec := NewEpochRecord(dev, l)
		p := RowPool(dev, l, 0)

		type state struct {
			bump  int64
			frees []int64 // logical free list front..back
		}
		var ckpt state // model at last checkpoint
		live := state{}
		allocated := map[int64]bool{}
		epoch := uint64(1)
		ckptTailLen := 0 // number of free entries consumable this epoch

		steps := 30 + rng.Intn(60)
		for i := 0; i < steps; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // alloc
				off, err := p.Alloc()
				if err != nil {
					continue
				}
				var want int64
				if ckptTailLen > 0 && len(live.frees) > 0 {
					want = live.frees[0]
					live.frees = live.frees[1:]
					ckptTailLen--
				} else {
					want = l.RowDataOff(0) + live.bump*l.RowSize
					live.bump++
				}
				if off != want {
					t.Logf("seed %d step %d: alloc %d, model %d", seed, i, off, want)
					return false
				}
				allocated[off] = true
			case 4, 5, 6: // free an allocated slot
				for off := range allocated {
					delete(allocated, off)
					p.Free(off)
					live.frees = append(live.frees, off)
					break
				}
			default: // checkpoint
				runCheckpoint(dev, rec, epoch, p)
				epoch++
				ckpt = state{bump: live.bump, frees: append([]int64(nil), live.frees...)}
				ckptTailLen = len(live.frees)
			}
		}
		dev.Crash(nvm.CrashStrict, seed)
		p2 := RowPool(dev, l, 0)
		p2.Recover(rec.Load(), true)
		if p2.Bump() != ckpt.bump {
			t.Logf("seed %d: bump %d, model %d", seed, p2.Bump(), ckpt.bump)
			return false
		}
		if p2.FreeCount() != int64(len(ckpt.frees)) {
			t.Logf("seed %d: freeCount %d, model %d", seed, p2.FreeCount(), len(ckpt.frees))
			return false
		}
		fs := p2.FreeSet()
		for _, off := range ckpt.frees {
			if _, ok := fs[off]; !ok {
				t.Logf("seed %d: slot %d missing", seed, off)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
