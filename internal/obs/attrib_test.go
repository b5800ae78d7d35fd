package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// attached returns an Attrib for a device of nLines lines whose per-cause
// source reads *table, standing in for nvm.Device.CauseCounts.
func attached(heatBuckets int, nLines int64, table *[NumCauses]CauseCounts) *Attrib {
	a := NewAttrib(heatBuckets)
	a.Attach(nLines, func() [NumCauses]CauseCounts { return *table })
	return a
}

func TestCauseNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Cause(0); c < NumCauses; c++ {
		n := c.String()
		if n == "" || n == "invalid" {
			t.Fatalf("cause %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate cause name %q", n)
		}
		seen[n] = true
	}
	if Cause(NumCauses).String() != "invalid" {
		t.Fatal("out-of-range cause must stringify as invalid")
	}
}

func TestAttribNilSafe(t *testing.T) {
	var a *Attrib
	a.Attach(100, nil)
	a.SetRegions([]Region{{Name: "x", Off: 0, Len: 64}})
	a.RecordWrite(0, 1)
	a.AddLogicalWrite(0, 100, 3)
	a.AddCommitted(0, 100)
	a.EpochEnd(1)
	a.Reset()
	if a.Snapshot() != (AttribSnapshot{}) {
		t.Fatal("nil snapshot not zero")
	}
	if a.Counts(CauseOther) != (CauseCounts{}) {
		t.Fatal("nil counts not zero")
	}
	if a.JSON() != nil {
		t.Fatal("nil Attrib must serialize as nil")
	}
	var o *Obs
	if o.Attrib() != nil {
		t.Fatal("nil Obs must expose nil Attrib")
	}
}

func TestAttribPerCauseCounts(t *testing.T) {
	var table [NumCauses]CauseCounts
	table[CausePersistFinal] = CauseCounts{LineWrites: 3, BytesWritten: 88, Flushes: 2}
	table[CauseWALAppend] = CauseCounts{LineWrites: 3, BytesWritten: 160}
	table[CauseRecovery] = CauseCounts{LineReads: 4, BytesRead: 256}
	a := attached(0, 1000, &table)

	pf := a.Counts(CausePersistFinal)
	if pf.LineWrites != 3 || pf.BytesWritten != 88 || pf.Flushes != 2 {
		t.Fatalf("persist-final counts = %+v", pf)
	}
	if w := a.Counts(CauseWALAppend); w.LineWrites != 3 || w.BytesWritten != 160 {
		t.Fatalf("wal counts = %+v", w)
	}
	if r := a.Counts(CauseRecovery); r.LineReads != 4 || r.BytesRead != 256 {
		t.Fatalf("recovery counts = %+v", r)
	}
	if g := a.Counts(CauseMajorGC); g != (CauseCounts{}) {
		t.Fatalf("untouched cause nonzero: %+v", g)
	}
	s := a.Snapshot()
	if s.PerCause[CausePersistFinal] != pf {
		t.Fatal("snapshot disagrees with Counts")
	}
}

func TestAttribHeatmapBuckets(t *testing.T) {
	a := NewAttrib(4)
	a.Attach(16, nil)    // 4 lines per bucket
	a.RecordWrite(0, 2)  // bucket 0
	a.RecordWrite(5, 1)  // bucket 1
	a.RecordWrite(3, 2)  // crosses buckets 0/1: split exactly
	a.RecordWrite(15, 4) // clamped at the last bucket

	j := a.JSON()
	if j.Heatmap.LinesPerBucket != 4 {
		t.Fatalf("lines per bucket = %d", j.Heatmap.LinesPerBucket)
	}
	want := []int64{3, 2, 0, 4}
	for i, w := range want {
		if got := j.Heatmap.BucketLineWrites[i]; got != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got, w, j.Heatmap.BucketLineWrites)
		}
	}
}

func TestAttribRegions(t *testing.T) {
	a := NewAttrib(0)
	a.Attach(1000, nil)
	a.SetRegions([]Region{
		{Name: "row-heap", Off: 0, Len: 64 * 10},
		{Name: "wal", Off: 64 * 10, Len: 64 * 10},
		{Name: "row-heap", Off: 64 * 20, Len: 64 * 10}, // second core, same name
	})
	a.RecordWrite(2, 1)   // first row-heap
	a.RecordWrite(12, 2)  // wal
	a.RecordWrite(25, 1)  // second row-heap
	a.RecordWrite(500, 1) // outside all regions

	j := a.JSON()
	byName := map[string]RegionJSON{}
	for _, r := range j.Heatmap.Regions {
		byName[r.Name] = r
	}
	if r := byName["row-heap"]; r.LineWrites != 2 || r.Lines != 20 {
		t.Fatalf("row-heap = %+v", r)
	}
	if r := byName["wal"]; r.LineWrites != 2 {
		t.Fatalf("wal = %+v", r)
	}
	if j.Heatmap.UnmappedWrites != 1 {
		t.Fatalf("unmapped = %d", j.Heatmap.UnmappedWrites)
	}
}

func TestAttribWriteAmpWindows(t *testing.T) {
	var table [NumCauses]CauseCounts
	a := attached(0, 1000, &table)
	// Epoch 1: 3 logical writes to one row (128 B each), one final persist
	// flushing 3 lines; persist-all would have written 3*(2+1)=9 lines.
	// Line volume is counted in write-backs (Flushes), not store touches.
	for i := 0; i < 3; i++ {
		a.AddLogicalWrite(0, 128, 3)
	}
	a.AddCommitted(0, 128)
	table[CausePersistFinal] = CauseCounts{LineWrites: 3, BytesWritten: 136, Flushes: 3}
	table[CauseWALAppend] = CauseCounts{LineWrites: 4, BytesWritten: 200, Flushes: 4}
	a.EpochEnd(1)

	// Epoch 2: one logical write, one commit, one line written back.
	a.AddLogicalWrite(1, 32, 2)
	a.AddCommitted(1, 32)
	table[CausePersistFinal] = CauseCounts{LineWrites: 4, BytesWritten: 176, Flushes: 4}
	a.EpochEnd(2)

	j := a.JSON()
	if len(j.WriteAmp.Epochs) != 2 {
		t.Fatalf("epoch windows = %d", len(j.WriteAmp.Epochs))
	}
	e1 := j.WriteAmp.Epochs[0]
	if e1.Epoch != 1 || e1.LogicalWrites != 3 || e1.CommittedRows != 1 {
		t.Fatalf("epoch 1 window = %+v", e1)
	}
	if e1.RowLines != 3 || e1.TotalLines != 7 || e1.CounterfactualLines != 9 {
		t.Fatalf("epoch 1 lines = %+v", e1)
	}
	if want := 9.0 / 3.0; e1.PersistAllRatio != want {
		t.Fatalf("epoch 1 persist-all ratio = %v, want %v", e1.PersistAllRatio, want)
	}
	if want := float64(7*64) / 128; e1.WriteAmp != want {
		t.Fatalf("epoch 1 write amp = %v, want %v", e1.WriteAmp, want)
	}
	e2 := j.WriteAmp.Epochs[1]
	if e2.LogicalWrites != 1 || e2.RowLines != 1 || e2.CounterfactualLines != 2 {
		t.Fatalf("epoch 2 window = %+v (must be the delta, not cumulative)", e2)
	}
	cum := j.WriteAmp.Cumulative
	if cum.LogicalWrites != 4 || cum.RowLines != 4 || cum.TotalLines != 8 {
		t.Fatalf("cumulative = %+v", cum)
	}
}

func TestAttribEpochRingBounded(t *testing.T) {
	a := NewAttrib(0)
	for e := uint64(1); e <= maxEpochWindows+10; e++ {
		a.AddCommitted(0, 1)
		a.EpochEnd(e)
	}
	j := a.JSON()
	if len(j.WriteAmp.Epochs) != maxEpochWindows {
		t.Fatalf("ring length = %d, want %d", len(j.WriteAmp.Epochs), maxEpochWindows)
	}
	if first := j.WriteAmp.Epochs[0].Epoch; first != 11 {
		t.Fatalf("ring head epoch = %d, want 11", first)
	}
}

func TestAttribReset(t *testing.T) {
	var table [NumCauses]CauseCounts
	table[CausePersistFinal] = CauseCounts{LineWrites: 5, BytesWritten: 320, Flushes: 5}
	a := attached(0, 100, &table)
	a.SetRegions([]Region{{Name: "x", Off: 0, Len: 6400}})
	a.RecordWrite(0, 5)
	a.AddLogicalWrite(0, 64, 2)
	a.AddCommitted(0, 64)
	a.EpochEnd(1)
	a.Reset()
	if s := a.Snapshot(); s != (AttribSnapshot{}) {
		t.Fatalf("snapshot after reset = %+v", s)
	}
	j := a.JSON()
	for i, b := range j.Heatmap.BucketLineWrites {
		if b != 0 {
			t.Fatalf("heat bucket %d = %d after reset", i, b)
		}
	}
	if len(j.Heatmap.Regions) == 0 || j.Heatmap.Regions[0].LineWrites != 0 {
		t.Fatalf("region counts survive reset: %+v", j.Heatmap.Regions)
	}
	if len(j.WriteAmp.Epochs) != 0 || j.WriteAmp.Cumulative.TotalLines != 0 {
		t.Fatalf("write-amp state survives reset: %+v", j.WriteAmp)
	}
}

func TestAttribJSONSkipsZeroCauses(t *testing.T) {
	var table [NumCauses]CauseCounts
	table[CauseWALAppend] = CauseCounts{LineWrites: 1, BytesWritten: 64}
	j := attached(0, 100, &table).JSON()
	if len(j.PerCause) != 1 {
		t.Fatalf("per-cause map = %v, want only wal-append", j.PerCause)
	}
	if _, ok := j.PerCause["wal-append"]; !ok {
		t.Fatalf("missing wal-append: %v", j.PerCause)
	}
}

func TestAttribConcurrent(t *testing.T) {
	// The source is read (by EpochEnd) while the workers count into it, as
	// a device's cells are.
	var writes [NumCauses]atomic.Int64
	a := NewAttrib(0)
	a.Attach(1<<12, func() (t [NumCauses]CauseCounts) {
		for c := range t {
			t[c].LineWrites = writes[c].Load()
		}
		return t
	})
	a.SetRegions([]Region{{Name: "all", Off: 0, Len: 64 << 12}})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				line := int64((w*per + i) % (1 << 12))
				writes[i%int(NumCauses)].Add(1)
				a.RecordWrite(line, 1)
				a.AddLogicalWrite(w, 64, 2)
				if i%4 == 0 {
					a.AddCommitted(w, 64)
				}
				if i%100 == 0 {
					a.EpochEnd(uint64(i / 100))
				}
			}
		}(w)
	}
	wg.Wait()
	s := a.Snapshot()
	var totalWrites int64
	for c := Cause(0); c < NumCauses; c++ {
		totalWrites += s.PerCause[c].LineWrites
	}
	if totalWrites != workers*per {
		t.Fatalf("line writes = %d, want %d", totalWrites, workers*per)
	}
	if s.LogicalWrites != workers*per {
		t.Fatalf("logical writes = %d", s.LogicalWrites)
	}
	j := a.JSON()
	var heat int64
	for _, b := range j.Heatmap.BucketLineWrites {
		heat += b
	}
	if heat != workers*per {
		t.Fatalf("heatmap total = %d, want %d", heat, workers*per)
	}
	if got := j.Heatmap.Regions[0].LineWrites + j.Heatmap.UnmappedWrites; got != workers*per {
		t.Fatalf("region total = %d, want %d", got, workers*per)
	}
}

// The nil-path benchmarks guard the disabled-attribution overhead budget:
// attribution off must cost one pointer nil check per device write, like
// the other obs instruments (run with the obs-overhead CI job's regex).

func BenchmarkNilAttribRecordWrite(b *testing.B) {
	var a *Attrib
	for i := 0; i < b.N; i++ {
		a.RecordWrite(int64(i), 1)
	}
}

func BenchmarkNilAttribAddLogicalWrite(b *testing.B) {
	var a *Attrib
	for i := 0; i < b.N; i++ {
		a.AddLogicalWrite(i, 64, 2)
	}
}

func BenchmarkAttribRecordWrite(b *testing.B) {
	a := NewAttrib(0)
	a.Attach(1<<16, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RecordWrite(int64(i%(1<<16)), 1)
	}
}
