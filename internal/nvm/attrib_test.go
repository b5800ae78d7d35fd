package nvm

import (
	"testing"

	"nvcaracal/internal/obs"
)

// obs duplicates the device line size (it sits below nvm in the import
// graph); this pin keeps the two constants from drifting apart.
func TestAttribLineSizePinned(t *testing.T) {
	if obs.AttribLineSize != LineSize {
		t.Fatalf("obs.AttribLineSize = %d, nvm.LineSize = %d", obs.AttribLineSize, LineSize)
	}
}

func newAttribDevice(t *testing.T, size int64) (*Device, *obs.Attrib) {
	t.Helper()
	a := obs.NewAttrib(0)
	return New(size, WithAttrib(a)), a
}

func TestTaggedAttributionPerCause(t *testing.T) {
	d, a := newAttribDevice(t, 1<<16)
	wal := d.Tag(obs.CauseWALAppend)
	gc := d.Tag(obs.CauseMajorGC)

	buf := make([]byte, 3*LineSize)
	wal.WriteAt(buf, 0)
	wal.Flush(0, int64(len(buf)))
	gc.Store64(4096, 7)
	gc.Flush(4096, 8)
	d.Fence()

	w := a.Counts(obs.CauseWALAppend)
	if w.LineWrites != 3 || w.BytesWritten != int64(len(buf)) || w.Flushes != 3 {
		t.Fatalf("wal counts = %+v", w)
	}
	g := a.Counts(obs.CauseMajorGC)
	if g.LineWrites != 1 || g.BytesWritten != 8 || g.Flushes != 1 {
		t.Fatalf("gc counts = %+v", g)
	}

	// Reads attribute too, and untagged device calls land in CauseOther.
	rec := d.Tag(obs.CauseRecovery)
	rec.ReadAt(buf, 0)
	if r := a.Counts(obs.CauseRecovery); r.LineReads != 3 || r.BytesRead != int64(len(buf)) {
		t.Fatalf("recovery counts = %+v", r)
	}
	if v := d.Load64(4096); v != 7 {
		t.Fatalf("Load64 = %d", v)
	}
	if o := a.Counts(obs.CauseOther); o.LineReads != 1 {
		t.Fatalf("untagged read not credited to other: %+v", o)
	}
}

func TestTaggedRetag(t *testing.T) {
	d, a := newAttribDevice(t, 1<<12)
	td := d.Tag(obs.CauseIdxJournal)
	if td.Cause() != obs.CauseIdxJournal || td.Device() != d {
		t.Fatal("tagged view identity")
	}
	rd := td.Retag(obs.CauseRecovery)
	rd.Store64(0, 1)
	if td.Cause() != obs.CauseIdxJournal {
		t.Fatal("Retag mutated the original view")
	}
	if c := a.Counts(obs.CauseRecovery); c.LineWrites != 1 {
		t.Fatalf("retagged write = %+v", c)
	}
	if c := a.Counts(obs.CauseIdxJournal); c != (obs.CauseCounts{}) {
		t.Fatalf("original cause charged: %+v", c)
	}
}

// Attribution must count only lines actually journaled for write-back: a
// second flush of an already-staged (or clean) line is a no-op in the
// durability machine and must not inflate the per-cause flush counters.
func TestAttribFlushCountsActualFlushesOnly(t *testing.T) {
	d, a := newAttribDevice(t, 1<<12)
	td := d.Tag(obs.CausePersistFinal)
	td.Store64(0, 1)
	td.Flush(0, 8)
	td.Flush(0, 8) // line already staged: no new write-back
	if c := a.Counts(obs.CausePersistFinal); c.Flushes != 1 {
		t.Fatalf("flushes = %d, want 1", c.Flushes)
	}
	if st := d.Stats(); st.Flushes != 1 {
		t.Fatalf("device write-backs = %d, want 1", st.Flushes)
	}
}

func TestAttribWriteFieldsPerField(t *testing.T) {
	d, a := newAttribDevice(t, 1<<12)
	td := d.Tag(obs.CausePersistFinal)
	td.WriteFields([]FieldWrite{
		{Off: 0, Data: make([]byte, 8)},
		{Off: 8, Data: make([]byte, 8)},
		{Off: 128, Data: make([]byte, 4)},
	}, []Range{{Off: 0, N: 16}, {Off: 128, N: 4}})
	c := a.Counts(obs.CausePersistFinal)
	if c.LineWrites != 3 || c.BytesWritten != 20 {
		t.Fatalf("writeFields attribution = %+v", c)
	}
	if c.Flushes != 2 {
		t.Fatalf("writeFields flushes = %d, want 2", c.Flushes)
	}
}

// Attribution is purely observational: a device with an Attrib attached must
// produce byte-identical Stats to one without, for an identical op sequence.
func TestStatsUnchangedByAttrib(t *testing.T) {
	plain := New(1 << 14)
	tagged, a := newAttribDevice(t, 1<<14)
	driveMixed(plain)
	driveMixed(tagged)
	if ps, ts := plain.Stats(), tagged.Stats(); ps != ts {
		t.Fatalf("Stats diverge with attribution attached:\nplain : %+v\ntagged: %+v", ps, ts)
	}
	// And the attribution totals must agree with the device's own counters.
	st := tagged.Stats()
	var rw, rr, bw, br int64
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		cc := a.Counts(c)
		rw += cc.LineWrites
		rr += cc.LineReads
		bw += cc.BytesWritten
		br += cc.BytesRead
	}
	if rw != st.LineWrites || rr != st.LineReads || bw != st.BytesWritten || br != st.BytesRead {
		t.Fatalf("attribution totals (r=%d w=%d br=%d bw=%d) != Stats %+v", rr, rw, br, bw, st)
	}
}

// driveMixed issues every kind of access, tagged and untagged.
func driveMixed(d *Device) {
	td := d.Tag(obs.CauseWALAppend)
	buf := make([]byte, 200)
	for i := range buf {
		buf[i] = byte(i)
	}
	td.WriteAt(buf, 64)
	td.Flush(64, 200)
	td.Fence()
	d.Store64(1024, 9)
	d.Persist(1024, 8)
	d.WriteFields([]FieldWrite{{Off: 2048, Data: buf[:8]}}, []Range{{Off: 2048, N: 8}})
	out := make([]byte, 200)
	td.ReadAt(out, 64)
	_ = d.Load64(1024)
	d.PersistRange(Range{Off: 64, N: 200}, Range{Off: 2048, N: 8})
	d.Tag(obs.CauseMajorGC).Store32(4096, 1)
	_ = d.Tag(obs.CauseRecovery).Load32(4096)
	d.Tag(obs.CauseMajorGC).Flush(4096, 64)
	d.Tag(obs.CauseMajorGC).Flush(4096, 64) // elided: already staged
	d.Tag(obs.CausePersistFinal).Fence()
}

// With no Attrib attached the device still counts every access by cause,
// and the per-cause counts tile Stats exactly.
func TestCauseCountsTileStatsWithoutAttrib(t *testing.T) {
	d := New(1 << 14)
	driveMixed(d)
	var sum Stats
	for _, cc := range d.CauseCounts() {
		sum.LineReads += cc.LineReads
		sum.LineWrites += cc.LineWrites
		sum.BytesRead += cc.BytesRead
		sum.BytesWritten += cc.BytesWritten
		sum.Flushes += cc.Flushes
		sum.FlushesElided += cc.FlushesElided
		sum.Fences += cc.Fences
	}
	st := d.Stats()
	sum.LinesFenced = st.LinesFenced
	if sum != st {
		t.Fatalf("per-cause counts do not tile Stats:\nsum  : %+v\nstats: %+v", sum, st)
	}
	if g := d.CauseCounts()[obs.CauseMajorGC]; g.LineWrites != 1 || g.Flushes != 1 || g.FlushesElided != 1 {
		t.Fatalf("major-gc counts = %+v", g)
	}
}

// Attrib.Reset zeroes what the instrument reports while the device keeps
// counting; traffic after the reset is reported alone.
func TestAttribResetKeepsDeviceCounting(t *testing.T) {
	d, a := newAttribDevice(t, 1<<14)
	driveMixed(d)
	before := d.Stats()
	a.Reset()
	if s := a.Snapshot(); s != (obs.AttribSnapshot{}) {
		t.Fatalf("snapshot after reset = %+v", s)
	}
	if c := a.Counts(obs.CauseWALAppend); c != (obs.CauseCounts{}) {
		t.Fatalf("counts after reset = %+v", c)
	}
	if j := a.JSON(); len(j.PerCause) != 0 || j.WriteAmp.Cumulative.TotalLines != 0 {
		t.Fatalf("JSON after reset: per-cause %v, cumulative %+v", j.PerCause, j.WriteAmp.Cumulative)
	}
	if st := d.Stats(); st != before {
		t.Fatalf("Attrib.Reset moved device stats: %+v, was %+v", st, before)
	}
	d.Tag(obs.CauseWALAppend).Store64(0, 1)
	d.Tag(obs.CauseWALAppend).Flush(0, 8)
	if c := a.Counts(obs.CauseWALAppend); c.LineWrites != 1 || c.BytesWritten != 8 || c.Flushes != 1 {
		t.Fatalf("counts after reset and one write = %+v", c)
	}
	if st := d.Stats(); st.LineWrites != before.LineWrites+1 || st.Flushes != before.Flushes+1 {
		t.Fatalf("device stopped counting: %+v, was %+v", st, before)
	}
}

// Restore rewinds the device counters, and the attribution counts read
// from them rewind along.
func TestRestoreRewindsAttribution(t *testing.T) {
	d, a := newAttribDevice(t, 1<<14)
	d.Tag(obs.CausePersistFinal).Persist(0, 8)
	snap := d.Snapshot()
	want := a.Snapshot()
	driveMixed(d)
	d.Restore(snap)
	if got := a.Snapshot(); got != want {
		t.Fatalf("attribution after Restore:\ngot : %+v\nwant: %+v", got, want)
	}
}

func TestAttribHeatmapSizedAtConstruction(t *testing.T) {
	a := obs.NewAttrib(8)
	d := New(8*64*64, WithAttrib(a)) // 512 lines -> 64 lines/bucket
	d.Tag(obs.CauseOther).Store64(0, 1)
	j := a.JSON()
	if j.Heatmap.LinesPerBucket != 64 || len(j.Heatmap.BucketLineWrites) != 8 {
		t.Fatalf("heatmap geometry = %d lines/bucket x %d buckets",
			j.Heatmap.LinesPerBucket, len(j.Heatmap.BucketLineWrites))
	}
	if j.Heatmap.BucketLineWrites[0] != 1 {
		t.Fatalf("bucket 0 = %d", j.Heatmap.BucketLineWrites[0])
	}
}
