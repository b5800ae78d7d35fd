package nvm

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewRoundsUpToLine(t *testing.T) {
	d := New(1)
	if d.Size() != LineSize {
		t.Fatalf("size = %d, want %d", d.Size(), LineSize)
	}
	d = New(LineSize + 1)
	if d.Size() != 2*LineSize {
		t.Fatalf("size = %d, want %d", d.Size(), 2*LineSize)
	}
}

func TestNewPanicsOnNonPositiveSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := New(4096)
	data := []byte("hello, persistent world")
	d.WriteAt(data, 100)
	got := make([]byte, len(data))
	d.ReadAt(got, 100)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := New(128)
	cases := []func(){
		func() { d.ReadAt(make([]byte, 8), 125) },
		func() { d.WriteAt(make([]byte, 8), -1) },
		func() { d.Load64(121) },
		func() { d.Store64(128, 1) },
		func() { d.Slice(120, 16) },
		func() { d.Flush(64, 65) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestUnpersistedWritesLostOnStrictCrash(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{1, 2, 3, 4}, 0)
	d.Crash(CrashStrict, 1)
	got := make([]byte, 4)
	d.ReadAt(got, 0)
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("unpersisted write survived strict crash: %v", got)
	}
}

func TestPersistedWritesSurviveCrash(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{9, 8, 7}, 64)
	d.Persist(64, 3)
	d.Crash(CrashStrict, 1)
	got := make([]byte, 3)
	d.ReadAt(got, 64)
	if !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("persisted write lost: %v", got)
	}
}

func TestFlushWithoutFenceLostOnStrictCrash(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{5}, 0)
	d.Flush(0, 1)
	// No fence: strict crash must lose it.
	d.Crash(CrashStrict, 1)
	got := make([]byte, 1)
	d.ReadAt(got, 0)
	if got[0] != 0 {
		t.Fatalf("flushed-but-unfenced write survived strict crash")
	}
}

func TestWriteAfterFlushNeedsSecondFlush(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{1}, 0)
	d.Flush(0, 1)
	d.WriteAt([]byte{2}, 0) // dirties the line again after the snapshot
	d.Fence()               // commits the snapshot containing 1
	d.Crash(CrashStrict, 1)
	got := make([]byte, 1)
	d.ReadAt(got, 0)
	if got[0] != 1 {
		t.Fatalf("got %d, want 1 (the flushed snapshot)", got[0])
	}
}

// TestStoreAfterFencedWriteBackKeepsFencedBytes stores a line again after
// its write-back was fenced: a strict crash must yield the fenced bytes,
// whether or not the second store was flushed (without a fence) too.
func TestStoreAfterFencedWriteBackKeepsFencedBytes(t *testing.T) {
	for _, reflush := range []bool{false, true} {
		d := New(4096)
		d.WriteAt([]byte{1, 2}, 3*LineSize)
		d.Persist(3*LineSize, 2)
		d.WriteAt([]byte{7}, 3*LineSize+1)
		if reflush {
			d.Flush(3*LineSize, 2)
		}
		d.Crash(CrashStrict, 1)
		var b [2]byte
		d.ReadAt(b[:], 3*LineSize)
		if b != [2]byte{1, 2} {
			t.Fatalf("reflush=%v: got %v after strict crash, want the fenced [1 2]", reflush, b)
		}
	}
}

// TestStagedStoredAgainCrashAllYieldsFlushedBytes flushes a line, stores it
// again without a fence and crashes with CrashAll: the issued write-back,
// not the later store, is what the failure-path flush finds.
func TestStagedStoredAgainCrashAllYieldsFlushedBytes(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{1}, 0)
	d.Flush(0, 1)
	d.WriteAt([]byte{2}, 1)
	d.Crash(CrashAll, 1)
	var b [2]byte
	d.ReadAt(b[:], 0)
	if b != [2]byte{1, 0} {
		t.Fatalf("got %v after CrashAll, want the flushed [1 0]", b)
	}
}

// TestFenceDoesNoPerLineWork stages many lines and fences: the fence must
// allocate nothing and leave every line's state word as it was, so its
// work does not grow with the number of lines staged.
func TestFenceDoesNoPerLineWork(t *testing.T) {
	d := New(1 << 20)
	for l := int64(0); l < d.nLines; l += 3 {
		d.WriteAt([]byte{byte(l)}, l*LineSize)
	}
	d.Flush(0, d.Size())
	before := make([]uint64, d.nLines)
	for l := range before {
		before[l] = d.state[l].Load()
	}
	if allocs := testing.AllocsPerRun(10, d.Fence); allocs != 0 {
		t.Fatalf("Fence allocated %v times per call", allocs)
	}
	for l := range before {
		if got := d.state[l].Load(); got != before[l] {
			t.Fatalf("line %d: fence changed state %#x -> %#x", l, before[l], got)
		}
	}
	if st := d.Stats(); st.LinesFenced != (d.nLines+2)/3 || st.Fences != 11 {
		t.Fatalf("stats = %+v, want %d lines fenced by 11 fences", st, (d.nLines+2)/3)
	}
	if dl := d.DirtyLines(); dl != 0 {
		t.Fatalf("DirtyLines = %d after fence, want 0", dl)
	}
}

// TestFenceAfterRestoreCommitsJournaledLines restores a snapshot taken
// with a flushed, unfenced line: the next fence must still make it durable.
func TestFenceAfterRestoreCommitsJournaledLines(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{9}, 5*LineSize)
	d.Flush(5*LineSize, 1)
	snap := d.Snapshot()
	d.Fence() // makes the write-back durable on the original timeline
	d.Restore(snap)
	d.Fence()
	d.Crash(CrashStrict, 1)
	var b [1]byte
	d.ReadAt(b[:], 5*LineSize)
	if b[0] != 9 {
		t.Fatal("a line staged in the snapshot was not made durable by a fence after Restore")
	}
}

func TestCrashAllPersistsEverything(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{42}, 10)
	d.Crash(CrashAll, 1)
	got := make([]byte, 1)
	d.ReadAt(got, 10)
	if got[0] != 42 {
		t.Fatalf("CrashAll lost a dirty line")
	}
}

func TestCrashRandomIsSubsetSemantics(t *testing.T) {
	// Every line must hold either its old durable content or its new
	// content in full — never a torn mix.
	for seed := int64(0); seed < 32; seed++ {
		d := New(4 * LineSize)
		old := bytes.Repeat([]byte{0xAA}, LineSize)
		for l := int64(0); l < 4; l++ {
			d.WriteAt(old, l*LineSize)
		}
		d.Persist(0, 4*LineSize)
		newc := bytes.Repeat([]byte{0xBB}, LineSize)
		for l := int64(0); l < 4; l++ {
			d.WriteAt(newc, l*LineSize)
		}
		d.Flush(0, 2*LineSize) // stage first two lines only
		d.Crash(CrashRandom, seed)
		for l := int64(0); l < 4; l++ {
			got := make([]byte, LineSize)
			d.ReadAt(got, l*LineSize)
			if !bytes.Equal(got, old) && !bytes.Equal(got, newc) {
				t.Fatalf("seed %d line %d: torn content %v", seed, l, got[:4])
			}
		}
	}
}

func TestLoadStore64(t *testing.T) {
	d := New(4096)
	const v = uint64(0xDEADBEEFCAFEF00D)
	d.Store64(256, v)
	if got := d.Load64(256); got != v {
		t.Fatalf("got %#x, want %#x", got, v)
	}
	d.Persist(256, 8)
	d.Crash(CrashStrict, 1)
	if got := d.Load64(256); got != v {
		t.Fatalf("after crash: got %#x, want %#x", got, v)
	}
}

func TestLoadStore32(t *testing.T) {
	d := New(4096)
	const v = 0xFEEDFACE
	d.Store32(100, v)
	if got := d.Load32(100); got != v {
		t.Fatalf("got %#x, want %#x", got, v)
	}
}

func TestZero(t *testing.T) {
	d := New(4096)
	d.WriteAt(bytes.Repeat([]byte{0xFF}, 128), 0)
	d.Zero(32, 64)
	got := make([]byte, 128)
	d.ReadAt(got, 0)
	for i, b := range got {
		want := byte(0xFF)
		if i >= 32 && i < 96 {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestSliceSeesLiveData(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{1, 2, 3}, 0)
	s := d.Slice(0, 3)
	if !bytes.Equal(s, []byte{1, 2, 3}) {
		t.Fatalf("slice = %v", s)
	}
}

func TestStatsCounting(t *testing.T) {
	d := New(4096)
	base := d.Stats()
	d.WriteAt(make([]byte, LineSize), 0) // exactly one line
	d.WriteAt(make([]byte, LineSize+1), LineSize)
	d.ReadAt(make([]byte, 8), 0)
	d.Flush(0, LineSize)
	d.Fence()
	s := d.Stats().Sub(base)
	if s.LineWrites != 3 { // 1 + 2 (spans two lines)
		t.Errorf("LineWrites = %d, want 3", s.LineWrites)
	}
	if s.LineReads != 1 {
		t.Errorf("LineReads = %d, want 1", s.LineReads)
	}
	if s.BytesWritten != int64(2*LineSize+1) {
		t.Errorf("BytesWritten = %d", s.BytesWritten)
	}
	if s.Flushes != 1 {
		t.Errorf("Flushes = %d, want 1", s.Flushes)
	}
	if s.Fences != 1 {
		t.Errorf("Fences = %d, want 1", s.Fences)
	}
	if s.LinesFenced != 1 {
		t.Errorf("LinesFenced = %d, want 1", s.LinesFenced)
	}
}

func TestFlushCleanLineIsNoop(t *testing.T) {
	d := New(4096)
	before := d.Stats()
	d.Flush(0, LineSize)
	if got := d.Stats().Sub(before).Flushes; got != 0 {
		t.Fatalf("flushing clean line counted %d flushes", got)
	}
}

func TestResetStats(t *testing.T) {
	d := New(4096)
	d.WriteAt([]byte{1}, 0)
	d.ResetStats()
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestDirtyLines(t *testing.T) {
	d := New(4096)
	if d.DirtyLines() != 0 {
		t.Fatal("fresh device has dirty lines")
	}
	d.WriteAt([]byte{1}, 0)
	d.WriteAt([]byte{1}, LineSize)
	if got := d.DirtyLines(); got != 2 {
		t.Fatalf("DirtyLines = %d, want 2", got)
	}
	d.Persist(0, 2*LineSize)
	if got := d.DirtyLines(); got != 0 {
		t.Fatalf("DirtyLines after persist = %d, want 0", got)
	}
}

func TestFailAfterInjectsCrash(t *testing.T) {
	d := New(4096)
	d.SetFailAfter(2)
	d.WriteAt([]byte{1}, 0)
	d.Flush(0, 1) // first flushed line
	d.WriteAt([]byte{2}, LineSize)
	defer func() {
		if r := recover(); r != ErrInjectedCrash {
			t.Fatalf("recover = %v, want ErrInjectedCrash", r)
		}
	}()
	d.Flush(LineSize, 1) // second flushed line: boom
	t.Fatal("unreachable")
}

func TestConcurrentDisjointWrites(t *testing.T) {
	d := New(1 << 20)
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := []byte{byte(w + 1)}
			for i := 0; i < per; i++ {
				off := int64(w*per+i) * LineSize % d.Size()
				d.WriteAt(buf, off)
				d.Flush(off, 1)
			}
		}(w)
	}
	wg.Wait()
	d.Fence()
	d.Crash(CrashStrict, 1)
	// Every written line should have survived.
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i++ {
			off := int64(w*per+i) * LineSize % d.Size()
			got := make([]byte, 1)
			d.ReadAt(got, off)
			if got[0] == 0 {
				t.Fatalf("worker %d slot %d lost", w, i)
			}
		}
	}
}

func TestLatencyModelCharges(t *testing.T) {
	d := New(4096, WithLatency(0, 200*time.Microsecond))
	start := time.Now()
	d.WriteAt(make([]byte, LineSize), 0)
	if el := time.Since(start); el < 150*time.Microsecond {
		t.Fatalf("latency model did not charge: %v", el)
	}
}

func TestFenceLatencyCharges(t *testing.T) {
	d := New(4096, WithFenceLatency(200*time.Microsecond))
	start := time.Now()
	d.Fence()
	if el := time.Since(start); el < 150*time.Microsecond {
		t.Fatalf("fence latency not charged: %v", el)
	}
}

// TestQuickPersistRoundTrip property: any sequence of (write, persist) pairs
// is fully recovered after a strict crash.
func TestQuickPersistRoundTrip(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(1 << 16)
		type rec struct {
			off  int64
			data []byte
		}
		var recs []rec
		for i := 0; i < int(nOps%40)+1; i++ {
			n := int64(rng.Intn(200) + 1)
			off := rng.Int63n(d.Size() - n)
			data := make([]byte, n)
			rng.Read(data)
			d.WriteAt(data, off)
			d.Persist(off, n)
			recs = append(recs, rec{off, data})
		}
		d.Crash(CrashStrict, seed)
		// Later writes can overlap earlier ones; replay forward to compute
		// the expected image.
		img := make([]byte, d.Size())
		for _, r := range recs {
			copy(img[r.off:], r.data)
		}
		for _, r := range recs {
			got := make([]byte, len(r.data))
			d.ReadAt(got, r.off)
			if !bytes.Equal(got, img[r.off:r.off+int64(len(r.data))]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrashNeverTears property: under any crash mode each line is
// either entirely old or entirely new.
func TestQuickCrashNeverTears(t *testing.T) {
	f := func(seed int64, mode uint8) bool {
		d := New(8 * LineSize)
		oldLine := bytes.Repeat([]byte{0x11}, LineSize)
		for l := int64(0); l < 8; l++ {
			d.WriteAt(oldLine, l*LineSize)
		}
		d.Persist(0, 8*LineSize)
		rng := rand.New(rand.NewSource(seed))
		newLine := bytes.Repeat([]byte{0x22}, LineSize)
		for l := int64(0); l < 8; l++ {
			if rng.Intn(2) == 0 {
				d.WriteAt(newLine, l*LineSize)
			}
			if rng.Intn(2) == 0 {
				d.Flush(l*LineSize, LineSize)
			}
		}
		d.Crash(CrashMode(mode%3), seed)
		for l := int64(0); l < 8; l++ {
			got := make([]byte, LineSize)
			d.ReadAt(got, l*LineSize)
			if !bytes.Equal(got, oldLine) && !bytes.Equal(got, newLine) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
