package nvm

import (
	"bytes"
	"testing"
)

// catchCrash runs f and reports whether it panicked with ErrInjectedCrash.
func catchCrash(t *testing.T, f func()) (fired bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if r != ErrInjectedCrash {
				panic(r)
			}
			fired = true
		}
	}()
	f()
	return false
}

// TestFailPointTornPrefix pins the vectored-call fail-point contract
// documented on SetFailAfter: when the fail-point fires inside a
// WriteFields call, all field stores are already in the live image, the
// flushed prefix (up to and including the firing line) is staged, and the
// unflushed suffix is dirty-only.
func TestFailPointTornPrefix(t *testing.T) {
	dev := New(4 * LineSize)
	// Two disjoint lines with old durable content.
	oldA := bytes.Repeat([]byte{0xA0}, LineSize)
	oldB := bytes.Repeat([]byte{0xB0}, LineSize)
	dev.WriteAt(oldA, 0)
	dev.WriteAt(oldB, LineSize)
	dev.Persist(0, 2*LineSize)

	newA := bytes.Repeat([]byte{0xA1}, LineSize)
	newB := bytes.Repeat([]byte{0xB1}, LineSize)
	dev.SetFailAfter(1) // fire on the first flushed line of the call
	fired := catchCrash(t, func() {
		dev.WriteFields([]FieldWrite{
			{Off: 0, Data: newA},
			{Off: LineSize, Data: newB},
		}, []Range{
			{Off: 0, N: LineSize},
			{Off: LineSize, N: LineSize},
		})
	})
	if !fired {
		t.Fatal("fail-point did not fire")
	}

	// All stores reached the live image before the crash fired.
	got := make([]byte, LineSize)
	dev.ReadAt(got, 0)
	if !bytes.Equal(got, newA) {
		t.Fatal("store A missing from live image after mid-call crash")
	}
	dev.ReadAt(got, LineSize)
	if !bytes.Equal(got, newB) {
		t.Fatal("store B missing from live image after mid-call crash")
	}

	// The firing line is staged (write-back issued), the suffix dirty-only:
	// a fence commits exactly the staged prefix, then a strict crash drops
	// the rest.
	dev.Fence()
	dev.Crash(CrashStrict, 1)
	dev.ReadAt(got, 0)
	if !bytes.Equal(got, newA) {
		t.Fatal("flushed prefix was not staged: fence did not commit line A")
	}
	dev.ReadAt(got, LineSize)
	if !bytes.Equal(got, oldB) {
		t.Fatal("unflushed suffix survived a strict crash")
	}
}

// TestFailPointTornPrefixStrictLosesAll: with no fence between the
// fail-point and the crash, CrashStrict drops the entire interrupted call —
// staged prefix included.
func TestFailPointTornPrefixStrictLosesAll(t *testing.T) {
	dev := New(4 * LineSize)
	oldA := bytes.Repeat([]byte{0xA0}, LineSize)
	oldB := bytes.Repeat([]byte{0xB0}, LineSize)
	dev.WriteAt(oldA, 0)
	dev.WriteAt(oldB, LineSize)
	dev.Persist(0, 2*LineSize)

	dev.SetFailAfter(2) // fire on the call's second flushed line
	fired := catchCrash(t, func() {
		dev.WriteFields([]FieldWrite{
			{Off: 0, Data: bytes.Repeat([]byte{0xA1}, LineSize)},
			{Off: LineSize, Data: bytes.Repeat([]byte{0xB1}, LineSize)},
		}, []Range{
			{Off: 0, N: LineSize},
			{Off: LineSize, N: LineSize},
		})
	})
	if !fired {
		t.Fatal("fail-point did not fire")
	}
	dev.Crash(CrashStrict, 1)
	got := make([]byte, LineSize)
	dev.ReadAt(got, 0)
	if !bytes.Equal(got, oldA) {
		t.Fatal("unfenced staged line survived CrashStrict")
	}
	dev.ReadAt(got, LineSize)
	if !bytes.Equal(got, oldB) {
		t.Fatal("unfenced staged line survived CrashStrict")
	}
}

// TestFailPointNeverTearsAField: a fail-point crash can interrupt a flush
// sequence but never an individual field store — a multi-line store either
// fully precedes the crash in the live image or the call never ran.
func TestFailPointNeverTearsAField(t *testing.T) {
	dev := New(8 * LineSize)
	big := bytes.Repeat([]byte{0x7E}, 3*LineSize) // one field spanning 3 lines
	dev.SetFailAfter(1)
	fired := catchCrash(t, func() {
		dev.WriteFields([]FieldWrite{{Off: 0, Data: big}},
			[]Range{{Off: 0, N: int64(len(big))}})
	})
	if !fired {
		t.Fatal("fail-point did not fire")
	}
	got := make([]byte, len(big))
	dev.ReadAt(got, 0)
	if !bytes.Equal(got, big) {
		t.Fatal("field store torn by fail-point: live image has a partial store")
	}
}

// TestFailPointPersistRangeSkipsFence: a fail-point firing inside
// PersistRange must prevent the trailing fence entirely.
func TestFailPointPersistRangeSkipsFence(t *testing.T) {
	dev := New(4 * LineSize)
	dev.WriteAt(bytes.Repeat([]byte{1}, LineSize), 0)
	dev.WriteAt(bytes.Repeat([]byte{2}, LineSize), LineSize)
	fences := dev.Stats().Fences
	dev.SetFailAfter(2)
	fired := catchCrash(t, func() {
		dev.PersistRange(Range{Off: 0, N: LineSize}, Range{Off: LineSize, N: LineSize})
	})
	if !fired {
		t.Fatal("fail-point did not fire")
	}
	if got := dev.Stats().Fences; got != fences {
		t.Fatalf("fence ran despite mid-call crash: %d fences, want %d", got, fences)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dev := New(16 * LineSize)
	dev.WriteAt(bytes.Repeat([]byte{0x11}, LineSize), 0)
	dev.Persist(0, LineSize)
	dev.WriteAt(bytes.Repeat([]byte{0x22}, LineSize), LineSize)
	dev.Flush(LineSize, LineSize)                                 // staged, unfenced
	dev.WriteAt(bytes.Repeat([]byte{0x33}, LineSize), 2*LineSize) // dirty

	snap := dev.Snapshot()
	statsAt := dev.Stats()
	dirtyAt := dev.DirtyLines()

	// Diverge: overwrite everything and make it durable.
	dev.WriteAt(bytes.Repeat([]byte{0xFF}, 3*LineSize), 0)
	dev.Persist(0, 3*LineSize)

	dev.Restore(snap)
	if got := dev.Stats(); got != statsAt {
		t.Fatalf("stats after restore = %+v, want %+v", got, statsAt)
	}
	if got := dev.DirtyLines(); got != dirtyAt {
		t.Fatalf("dirty lines after restore = %d, want %d", got, dirtyAt)
	}
	// The staged-but-unfenced line must still be fence-committable.
	dev.Fence()
	dev.Crash(CrashStrict, 1)
	got := make([]byte, LineSize)
	dev.ReadAt(got, LineSize)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x22}, LineSize)) {
		t.Fatal("restored staged line lost its snapshot")
	}
	dev.ReadAt(got, 2*LineSize)
	if !bytes.Equal(got, make([]byte, LineSize)) {
		t.Fatal("restored dirty line survived a strict crash")
	}
}

func TestSnapshotNewDeviceIsIndependent(t *testing.T) {
	dev := New(8 * LineSize)
	dev.WriteAt(bytes.Repeat([]byte{0x5A}, LineSize), 0)
	dev.Persist(0, LineSize)
	snap := dev.Snapshot()

	rep := snap.NewDevice()
	rep.WriteAt(bytes.Repeat([]byte{0xEE}, LineSize), 0)
	rep.Persist(0, LineSize)

	got := make([]byte, LineSize)
	dev.ReadAt(got, 0)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x5A}, LineSize)) {
		t.Fatal("replica mutation leaked into the original device")
	}
	rep.Crash(CrashStrict, 1)
	rep.ReadAt(got, 0)
	if !bytes.Equal(got, bytes.Repeat([]byte{0xEE}, LineSize)) {
		t.Fatal("replica lost its own durable write")
	}
}

// TestSnapshotRestoreDeterminism: after a restore, an identical operation
// sequence — including chaos-eviction rolls and a fail-point — produces an
// identical crash state. This is the property the model checker's
// replica-per-worker exploration depends on.
func TestSnapshotRestoreDeterminism(t *testing.T) {
	run := func(dev *Device) []byte {
		dev.SetFailAfter(7)
		catchCrash(t, func() {
			for i := int64(0); i < 16; i++ {
				off := (i % 8) * LineSize
				dev.WriteAt(bytes.Repeat([]byte{byte(i)}, LineSize), off)
				dev.Flush(off, LineSize)
				if i%4 == 3 {
					dev.Fence()
				}
			}
		})
		dev.Crash(CrashRandom, 99)
		img := make([]byte, dev.Size())
		dev.ReadAt(img, 0)
		return img
	}

	base := New(8*LineSize, WithChaosEviction(3, 42))
	base.WriteAt(bytes.Repeat([]byte{0xAB}, LineSize), 0)
	base.Persist(0, LineSize)
	snap := base.Snapshot()

	img1 := run(snap.NewDevice())
	img2 := run(snap.NewDevice())
	base.Restore(snap)
	img3 := run(base)
	if !bytes.Equal(img1, img2) || !bytes.Equal(img1, img3) {
		t.Fatal("identical op sequences diverged after snapshot restore")
	}
}

func TestFenceMarks(t *testing.T) {
	dev := New(8 * LineSize)
	dev.TraceFences(true)
	for i := int64(0); i < 3; i++ {
		dev.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, LineSize), i*LineSize)
		dev.Flush(i*LineSize, LineSize)
		dev.Fence()
	}
	marks := dev.FenceMarks()
	if len(marks) != 3 {
		t.Fatalf("marks = %v, want 3 entries", marks)
	}
	for i, m := range marks {
		if m != int64(i+1) {
			t.Fatalf("mark[%d] = %d, want %d", i, m, i+1)
		}
	}
	// Disabling stops recording but keeps the trace readable; re-enabling
	// starts a fresh one.
	dev.TraceFences(false)
	dev.Fence()
	if got := dev.FenceMarks(); len(got) != 3 {
		t.Fatalf("marks after disabling = %v, want the 3 recorded", got)
	}
	dev.TraceFences(true)
	if got := dev.FenceMarks(); len(got) != 0 {
		t.Fatalf("marks after re-enabling = %v, want empty", got)
	}
}
