package nvm

import (
	"sync"
	"testing"
)

// TestDeviceStressRace hammers the device from concurrent workers on
// disjoint regions — stores, flushes, and fences racing each other and a
// dedicated fencer goroutine — then quiesces, persists, and crashes. Run
// under -race it validates the lock-free line-state protocol: dirty marks
// are CAS transitions, flush snapshots go to the shared staging image, and
// fences drain the striped journals, all while workers keep storing.
func TestDeviceStressRace(t *testing.T) {
	const (
		workers   = 8
		regionPer = 1 << 16
		slots     = 64
		slotSize  = 256
		iters     = 2000
	)
	d := New(workers * regionPer)
	for round := 0; round < 3; round++ {
		stop := make(chan struct{})
		var fencer sync.WaitGroup
		fencer.Add(1)
		go func() {
			defer fencer.Done()
			for {
				select {
				case <-stop:
					return
				default:
					d.Fence()
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := int64(w * regionPer)
				buf := make([]byte, 128)
				for i := 0; i < iters; i++ {
					off := base + int64(i%slots)*slotSize
					for j := range buf {
						buf[j] = byte(w ^ i ^ j ^ round)
					}
					d.WriteAt(buf, off)
					d.Store64(off+128, uint64(i))
					d.Flush(off, 136)
					if i%64 == 63 {
						d.Fence()
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		fencer.Wait()

		// Quiesced: capture the final live state, make everything durable,
		// crash strictly, and confirm the persisted state survived intact.
		want := make([]byte, d.Size())
		d.ReadAt(want, 0)
		d.Persist(0, d.Size())
		if dl := d.DirtyLines(); dl != 0 {
			t.Fatalf("round %d: %d lines still non-durable after full persist", round, dl)
		}
		d.Crash(CrashStrict, int64(round))
		got := make([]byte, d.Size())
		d.ReadAt(got, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: byte %d lost across crash: got %#x want %#x", round, i, got[i], want[i])
			}
		}

		st := d.Stats()
		if st.LinesFenced > st.Flushes {
			t.Fatalf("round %d: fenced more lines (%d) than were flushed (%d)", round, st.LinesFenced, st.Flushes)
		}
	}
}

// TestDeviceStressChaos runs the same concurrent pattern with chaos
// eviction enabled, so spontaneous write-backs race flushes and fences on
// the same lines. Evicted lines are durable without a fence, so the only
// invariant checked is that a full persist still converges and survives a
// strict crash.
func TestDeviceStressChaos(t *testing.T) {
	const (
		workers   = 4
		regionPer = 1 << 15
	)
	d := New(int64(workers*regionPer), WithChaosEviction(64, 7))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * regionPer)
			buf := make([]byte, 96)
			for i := 0; i < 3000; i++ {
				off := base + int64(i%128)*256
				for j := range buf {
					buf[j] = byte(w + i + j)
				}
				d.WriteAt(buf, off)
				d.Flush(off, int64(len(buf)))
				if i%128 == 127 {
					d.Fence()
				}
			}
		}(w)
	}
	wg.Wait()

	want := make([]byte, d.Size())
	d.ReadAt(want, 0)
	d.Persist(0, d.Size())
	d.Crash(CrashStrict, 99)
	got := make([]byte, d.Size())
	d.ReadAt(got, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d lost across crash after chaos run", i)
		}
	}
}

// TestWriteFieldsCounterEquivalence pins the vectored write's accounting to
// the unvectored sequence it replaces: issuing the same stores and flushes
// through WriteFields must move every Stats counter by exactly the same
// amount. This is the per-op guarantee behind the engine-level golden test.
func TestWriteFieldsCounterEquivalence(t *testing.T) {
	mkVal := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		value int // value bytes stored at off 1024 (0 = none)
	}{
		{"descriptor-only", 0},
		{"inline-value", 80},
		{"pooled-value", 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(1 << 20)
			b := New(1 << 20)
			val := mkVal(tc.value)

			// Device a: the unvectored sequence (value store and flush, then
			// the descriptor stores and header flush).
			if len(val) > 0 {
				a.WriteAt(val, 1024)
				a.Flush(1024, int64(len(val)))
			}
			a.Store64(40, 7)
			a.Store64(48, 1024)
			a.Store32(56, uint32(len(val)))
			a.Flush(0, 64)
			a.Fence()

			// Device b: the same ops as one vectored call.
			var sid, ptr [8]byte
			var size [4]byte
			putU64 := func(dst []byte, v uint64) {
				for i := range dst {
					dst[i] = byte(v >> (8 * i))
				}
			}
			putU64(sid[:], 7)
			putU64(ptr[:], 1024)
			putU64(size[:], uint64(len(val)))
			fields := make([]FieldWrite, 0, 4)
			flushes := make([]Range, 0, 2)
			if len(val) > 0 {
				fields = append(fields, FieldWrite{Off: 1024, Data: val})
				flushes = append(flushes, Range{Off: 1024, N: int64(len(val))})
			}
			fields = append(fields,
				FieldWrite{Off: 40, Data: sid[:]},
				FieldWrite{Off: 48, Data: ptr[:]},
				FieldWrite{Off: 56, Data: size[:]},
			)
			flushes = append(flushes, Range{Off: 0, N: 64})
			b.WriteFields(fields, flushes)
			b.Fence()

			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("counter drift:\n unvectored %+v\n vectored   %+v", sa, sb)
			}
			// The durable images must match too.
			a.Crash(CrashStrict, 1)
			b.Crash(CrashStrict, 1)
			ia, ib := make([]byte, 2048), make([]byte, 2048)
			a.ReadAt(ia, 0)
			b.ReadAt(ib, 0)
			for i := range ia {
				if ia[i] != ib[i] {
					t.Fatalf("durable image drift at byte %d", i)
				}
			}
		})
	}
}

// TestPersistRangeEquivalence checks PersistRange against per-range
// Flush+Fence: same durable outcome, one fence instead of N.
func TestPersistRangeEquivalence(t *testing.T) {
	a := New(1 << 16)
	b := New(1 << 16)
	ranges := []Range{{Off: 0, N: 64}, {Off: 4096, N: 200}, {Off: 8192, N: 64}}
	fill := func(d *Device) {
		for i, r := range ranges {
			buf := make([]byte, r.N)
			for j := range buf {
				buf[j] = byte(i + j)
			}
			d.WriteAt(buf, r.Off)
		}
	}
	fill(a)
	for _, r := range ranges {
		a.Persist(r.Off, r.N)
	}
	fill(b)
	b.PersistRange(ranges...)

	if fa, fb := a.Stats().Fences, b.Stats().Fences; fb != 1 || fa != int64(len(ranges)) {
		t.Fatalf("fence counts: per-range %d, vectored %d (want %d and 1)", fa, fb, len(ranges))
	}
	if fa, fb := a.Stats().Flushes, b.Stats().Flushes; fa != fb {
		t.Fatalf("flush counts differ: %d vs %d", fa, fb)
	}
	a.Crash(CrashStrict, 5)
	b.Crash(CrashStrict, 5)
	for _, r := range ranges {
		ba, bb := make([]byte, r.N), make([]byte, r.N)
		a.ReadAt(ba, r.Off)
		b.ReadAt(bb, r.Off)
		if string(ba) != string(bb) {
			t.Fatalf("durable range at %d differs", r.Off)
		}
	}
}

// TestZeroSequentialDiscount pins the Zero latency fix: zeroing a large
// region must charge the same discounted line count as an equally sized
// sequential WriteAt, not the full random-write cost. The latency model is
// time-based, so the check compares the only observable that does not
// depend on wall-clock precision: both paths share chargedWriteLines.
func TestZeroSequentialDiscount(t *testing.T) {
	for _, lines := range []int64{1, 3, 4, 16, 1000} {
		got := chargedWriteLines(lines)
		want := lines
		if lines >= seqWriteFactor {
			want = (lines + seqWriteFactor - 1) / seqWriteFactor
		}
		if got != want {
			t.Fatalf("chargedWriteLines(%d) = %d, want %d", lines, got, want)
		}
	}
	// And Zero still counts exact line writes in Stats (the discount is
	// latency-only).
	d := New(1 << 16)
	d.Zero(0, 64*100)
	if st := d.Stats(); st.LineWrites != 100 {
		t.Fatalf("Zero(6400B) counted %d line writes, want 100", st.LineWrites)
	}
}

// TestWriteFieldsOutOfBoundsPanics covers the vectored call's bounds guard:
// a field past the device end must panic like the store it replaces.
func TestWriteFieldsOutOfBoundsPanics(t *testing.T) {
	d := New(4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds WriteFields did not panic")
		}
	}()
	d.WriteFields([]FieldWrite{{Off: 4090, Data: make([]byte, 16)}}, nil)
}
