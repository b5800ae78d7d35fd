package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Cause classifies why an NVMM device access happened. The engine threads a
// Cause through every device call site (via nvm.Tagged), so the attribution
// layer can decompose raw line traffic into the paper's categories: final
// version persists vs. WAL epoch appends vs. GC rewrites vs. recovery
// replay. CauseOther is the catch-all for untagged sites (checkpoint
// metadata such as the persistent counters and the epoch record, digests,
// reads issued by transaction execution).
type Cause uint8

const (
	CauseOther Cause = iota
	// CausePersistFinal: persisting a row's final committed version for the
	// epoch (row descriptor + value writes in persistFinal / dropRow).
	CausePersistFinal
	// CauseIntermediate: persisting an intermediate (non-final) version —
	// zero in dual-version modes by construction; nonzero only in the
	// persist-every-write counterfactual modes (Hybrid, AllNVMM scratch).
	CauseIntermediate
	// CauseWALAppend: the per-epoch write-ahead log append.
	CauseWALAppend
	// CauseIdxJournal: index-journal epoch appends and checkpoint control.
	CauseIdxJournal
	// CauseMinorGC: inline minor GC — shifting a row's v2 descriptor into
	// the v1 slot before installing the new final version.
	CauseMinorGC
	// CauseMajorGC: the epoch-boundary major GC pass over deferred
	// version frees.
	CauseMajorGC
	// CauseRecovery: post-crash work — WAL reads, the recovery row scan,
	// repairs, version reverts, index-journal recovery.
	CauseRecovery
	// CauseAlloc: allocator and format traffic — device formatting, row
	// header initialization, free-ring reads/writes, pool checkpoints.
	CauseAlloc

	NumCauses = iota
)

var causeNames = [NumCauses]string{
	"other",
	"persist-final",
	"intermediate-persist",
	"wal-append",
	"index-journal",
	"minor-gc",
	"major-gc",
	"recovery",
	"alloc",
}

// String returns the stable JSON/report name of the cause.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "invalid"
}

// AttribLineSize mirrors nvm.LineSize. obs sits below nvm in the import
// graph, so the constant is duplicated; internal/nvm pins the two equal
// with a test.
const AttribLineSize = 64

// attribStripes is the stripe count of the write-amplification cells.
const attribStripes = 64

// DefaultHeatBuckets is the heatmap resolution of an Attrib built by New.
const DefaultHeatBuckets = 256

// maxEpochWindows bounds the per-epoch write-amplification ring.
const maxEpochWindows = 64

// wampCell is one core stripe of the logical-write accounting the engine
// reports from its commit path.
type wampCell struct {
	logicalBytes        atomic.Int64 // value bytes of every row write (incl. intermediates)
	logicalWrites       atomic.Int64 // row writes (incl. intermediates)
	committedBytes      atomic.Int64 // value bytes of final versions persisted
	committedRows       atomic.Int64 // final versions persisted
	counterfactualLines atomic.Int64 // lines a persist-every-write design would write
	_                   [3]int64
}

type heatState struct {
	bucketLines int64
	counts      []atomic.Int64
}

type regionEntry struct {
	name       string
	start, end int64 // line numbers, [start, end)
}

type regionTable struct {
	entries  []regionEntry
	writes   []atomic.Int64 // parallel to entries
	unmapped atomic.Int64
}

// Region names a byte range of the device address space (a pmem layout
// region). Attrib maps line writes back onto these for the spatial
// breakdown; per-core regions may share a name and are merged at export.
type Region struct {
	Name string
	Off  int64 // bytes
	Len  int64 // bytes
}

// causeOrigin is where the per-cause counts come from: the attached
// device's cumulative per-cause fold, and its reading at the last Reset.
type causeOrigin struct {
	source func() [NumCauses]CauseCounts
	base   [NumCauses]CauseCounts
}

// Attrib is the NVMM access-attribution instrument: the per-cause
// line/byte/flush/fence counts read from the attached device, a spatial
// line-write heatmap over the device address space with a named-region
// mapping, and write-amplification accounting (logical row bytes vs. lines
// actually written, per epoch and cumulative, plus the persist-every-write
// counterfactual). All entry points are nil-safe; the device and engine
// carry a possibly-nil *Attrib and pay a nil check when it is off.
type Attrib struct {
	heatBuckets int

	wamp [attribStripes]wampCell

	origin  atomic.Pointer[causeOrigin]
	heat    atomic.Pointer[heatState]
	regions atomic.Pointer[regionTable]

	mu      sync.Mutex
	lastTot wampTotals
	epochs  []WampWindow
}

// NewAttrib builds an attribution instrument. heatBuckets caps the heatmap
// resolution (DefaultHeatBuckets when <= 0); the bucket width in lines is
// fixed once the device size is known via Attach.
func NewAttrib(heatBuckets int) *Attrib {
	if heatBuckets <= 0 {
		heatBuckets = DefaultHeatBuckets
	}
	return &Attrib{heatBuckets: heatBuckets}
}

// Attrib returns the attribution instrument, or nil when attribution is off
// (or o is nil). Pass it to nvm.WithAttrib.
func (o *Obs) Attrib() *Attrib {
	if o == nil {
		return nil
	}
	return o.attrib
}

// Attach binds the instrument to a device of nLines lines whose
// cumulative per-cause traffic source reports (nvm.Device.CauseCounts):
// it sizes the heatmap and makes source the origin of every per-cause
// count, since the device is the one counter of that traffic. source must
// not block. The device calls Attach at construction; attaching again (a
// new device on the same instrument) re-sizes and clears the heatmap and
// reports the new device's counts from its start.
func (a *Attrib) Attach(nLines int64, source func() [NumCauses]CauseCounts) {
	if a == nil {
		return
	}
	a.origin.Store(&causeOrigin{source: source})
	if nLines <= 0 {
		return
	}
	per := (nLines + int64(a.heatBuckets) - 1) / int64(a.heatBuckets)
	if per < 1 {
		per = 1
	}
	n := (nLines + per - 1) / per
	a.heat.Store(&heatState{bucketLines: per, counts: make([]atomic.Int64, n)})
}

// SetRegions installs the named-region map (byte offsets, converted to
// lines internally). Regions must not overlap; entries sharing a name
// (per-core pools) are merged in the exported breakdown. Replaces any
// previous table and its counts.
func (a *Attrib) SetRegions(rs []Region) {
	if a == nil {
		return
	}
	t := &regionTable{}
	for _, r := range rs {
		if r.Len <= 0 {
			continue
		}
		t.entries = append(t.entries, regionEntry{
			name:  r.Name,
			start: r.Off / AttribLineSize,
			end:   (r.Off + r.Len + AttribLineSize - 1) / AttribLineSize,
		})
	}
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].start < t.entries[j].start })
	t.writes = make([]atomic.Int64, len(t.entries))
	a.regions.Store(t)
}

// RecordWrite maps a device line-write span onto the spatial heatmap and
// the region breakdown. The device counts the write itself. Small enough
// to inline, so a nil instrument costs the caller a pointer check.
func (a *Attrib) RecordWrite(firstLine, lines int64) {
	if a != nil {
		a.recordSpace(firstLine, lines)
	}
}

func (a *Attrib) recordSpace(firstLine, lines int64) {
	if h := a.heat.Load(); h != nil {
		first := firstLine / h.bucketLines
		last := (firstLine + lines - 1) / h.bucketLines
		if first < 0 {
			first = 0
		}
		if max := int64(len(h.counts)) - 1; last > max {
			last = max
		}
		if first == last {
			h.counts[first].Add(lines)
		} else {
			// Spans crossing a bucket boundary are rare (buckets are many
			// lines wide); split the span exactly.
			for l := firstLine; l < firstLine+lines; l++ {
				b := l / h.bucketLines
				if b >= 0 && b < int64(len(h.counts)) {
					h.counts[b].Add(1)
				}
			}
		}
	}
	if t := a.regions.Load(); t != nil {
		i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].start > firstLine }) - 1
		if i >= 0 && firstLine < t.entries[i].end {
			t.writes[i].Add(lines)
		} else {
			t.unmapped.Add(lines)
		}
	}
}

// AddLogicalWrite records one logical row write from a transaction
// (including intermediates that dual-version modes never persist), plus the
// line count a persist-every-write design would have written for it.
func (a *Attrib) AddLogicalWrite(core int, bytes, counterfactualLines int64) {
	if a == nil {
		return
	}
	w := &a.wamp[core%attribStripes]
	w.logicalBytes.Add(bytes)
	w.logicalWrites.Add(1)
	w.counterfactualLines.Add(counterfactualLines)
}

// AddCommitted records one final version persisted (bytes of row value
// actually committed durable this epoch).
func (a *Attrib) AddCommitted(core int, bytes int64) {
	if a == nil {
		return
	}
	w := &a.wamp[core%attribStripes]
	w.committedBytes.Add(bytes)
	w.committedRows.Add(1)
}

// wampTotals is one folded reading of every counter feeding the
// write-amplification windows.
type wampTotals struct {
	logicalBytes        int64
	logicalWrites       int64
	committedBytes      int64
	committedRows       int64
	counterfactualLines int64
	rowLines            int64 // row-traffic line write-backs (persist-final + minor/major GC + intermediate)
	totalLines          int64 // line write-backs, all causes
	totalBytes          int64
}

// perCause reads the source relative to the last Reset.
func (a *Attrib) perCause() [NumCauses]CauseCounts {
	var out [NumCauses]CauseCounts
	o := a.origin.Load()
	if o == nil || o.source == nil {
		return out
	}
	out = o.source()
	for c := range out {
		out[c] = out[c].sub(o.base[c])
	}
	return out
}

// foldTotals measures physical write volume in *flushed* lines (write-backs
// the durability machine actually issued), not per-store line touches:
// several stores to one line cost one NVMM write, and the persist-every-write
// counterfactual is denominated in the same unit.
func (a *Attrib) foldTotals() wampTotals {
	var t wampTotals
	for c, cc := range a.perCause() {
		t.totalLines += cc.Flushes
		t.totalBytes += cc.BytesWritten
		switch Cause(c) {
		case CausePersistFinal, CauseMinorGC, CauseMajorGC, CauseIntermediate:
			t.rowLines += cc.Flushes
		}
	}
	for s := range a.wamp {
		w := &a.wamp[s]
		t.logicalBytes += w.logicalBytes.Load()
		t.logicalWrites += w.logicalWrites.Load()
		t.committedBytes += w.committedBytes.Load()
		t.committedRows += w.committedRows.Load()
		t.counterfactualLines += w.counterfactualLines.Load()
	}
	return t
}

func (t wampTotals) sub(o wampTotals) wampTotals {
	return wampTotals{
		logicalBytes:        t.logicalBytes - o.logicalBytes,
		logicalWrites:       t.logicalWrites - o.logicalWrites,
		committedBytes:      t.committedBytes - o.committedBytes,
		committedRows:       t.committedRows - o.committedRows,
		counterfactualLines: t.counterfactualLines - o.counterfactualLines,
		rowLines:            t.rowLines - o.rowLines,
		totalLines:          t.totalLines - o.totalLines,
		totalBytes:          t.totalBytes - o.totalBytes,
	}
}

func (t wampTotals) window(epoch uint64) WampWindow {
	w := WampWindow{
		Epoch:               epoch,
		LogicalBytes:        t.logicalBytes,
		LogicalWrites:       t.logicalWrites,
		CommittedBytes:      t.committedBytes,
		CommittedRows:       t.committedRows,
		CounterfactualLines: t.counterfactualLines,
		RowLines:            t.rowLines,
		TotalLines:          t.totalLines,
		TotalBytes:          t.totalBytes,
	}
	if t.committedBytes > 0 {
		w.WriteAmp = float64(t.totalLines*AttribLineSize) / float64(t.committedBytes)
		w.RowWriteAmp = float64(t.rowLines*AttribLineSize) / float64(t.committedBytes)
	}
	if t.rowLines > 0 {
		w.PersistAllRatio = float64(t.counterfactualLines) / float64(t.rowLines)
	}
	return w
}

// EpochEnd closes one epoch's write-amplification window: the delta of
// every counter since the previous EpochEnd, kept in a bounded ring of
// recent epochs. The coordinator calls it once per epoch after the persist
// phase; it folds all stripes, so it is an epoch-granularity cost, not a
// per-access one.
func (a *Attrib) EpochEnd(epoch uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tot := a.foldTotals()
	win := tot.sub(a.lastTot).window(epoch)
	a.lastTot = tot
	a.epochs = append(a.epochs, win)
	if len(a.epochs) > maxEpochWindows {
		a.epochs = a.epochs[len(a.epochs)-maxEpochWindows:]
	}
}

// Reset zeroes what the instrument reports: the per-cause counts restart
// from the source's current reading (the device keeps counting), and the
// logical-write counters, the heatmap, the region counts, and the epoch
// ring are cleared (the heatmap geometry and region map are kept). A
// device ResetStats or Restore rewinds the source itself, so call Reset
// after those, not before. Racing recorders are tolerated, not
// synchronized, like Hist.Reset.
func (a *Attrib) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if o := a.origin.Load(); o != nil && o.source != nil {
		a.origin.Store(&causeOrigin{source: o.source, base: o.source()})
	}
	for s := range a.wamp {
		w := &a.wamp[s]
		w.logicalBytes.Store(0)
		w.logicalWrites.Store(0)
		w.committedBytes.Store(0)
		w.committedRows.Store(0)
		w.counterfactualLines.Store(0)
	}
	if h := a.heat.Load(); h != nil {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
	}
	if t := a.regions.Load(); t != nil {
		for i := range t.writes {
			t.writes[i].Store(0)
		}
		t.unmapped.Store(0)
	}
	a.lastTot = wampTotals{}
	a.epochs = nil
}

// CauseCounts is the folded counters of one cause.
type CauseCounts struct {
	LineReads     int64 `json:"line_reads"`
	LineWrites    int64 `json:"line_writes"`
	BytesRead     int64 `json:"bytes_read"`
	BytesWritten  int64 `json:"bytes_written"`
	Flushes       int64 `json:"flushes"`
	FlushesElided int64 `json:"flushes_elided,omitempty"`
	Fences        int64 `json:"fences,omitempty"`
}

func (c CauseCounts) sub(o CauseCounts) CauseCounts {
	return CauseCounts{
		LineReads:     c.LineReads - o.LineReads,
		LineWrites:    c.LineWrites - o.LineWrites,
		BytesRead:     c.BytesRead - o.BytesRead,
		BytesWritten:  c.BytesWritten - o.BytesWritten,
		Flushes:       c.Flushes - o.Flushes,
		FlushesElided: c.FlushesElided - o.FlushesElided,
		Fences:        c.Fences - o.Fences,
	}
}

// AttribSnapshot is a consistent-enough (per-counter atomic) fold of the
// attribution state, for tests and reports.
type AttribSnapshot struct {
	PerCause            [NumCauses]CauseCounts
	LogicalBytes        int64
	LogicalWrites       int64
	CommittedBytes      int64
	CommittedRows       int64
	CounterfactualLines int64
}

// Snapshot reads the per-cause counts and folds the logical-write stripes.
func (a *Attrib) Snapshot() AttribSnapshot {
	var s AttribSnapshot
	if a == nil {
		return s
	}
	s.PerCause = a.perCause()
	for st := range a.wamp {
		w := &a.wamp[st]
		s.LogicalBytes += w.logicalBytes.Load()
		s.LogicalWrites += w.logicalWrites.Load()
		s.CommittedBytes += w.committedBytes.Load()
		s.CommittedRows += w.committedRows.Load()
		s.CounterfactualLines += w.counterfactualLines.Load()
	}
	return s
}

// Counts returns the counts of one cause.
func (a *Attrib) Counts(c Cause) CauseCounts {
	if a == nil {
		return CauseCounts{}
	}
	return a.perCause()[c]
}

// RegionJSON is one named region's share of line writes.
type RegionJSON struct {
	Name       string `json:"name"`
	Lines      int64  `json:"lines"`
	LineWrites int64  `json:"line_writes"`
}

// HeatmapJSON is the spatial breakdown: raw per-bucket line-write counts
// over the device address space plus the named-region rollup.
type HeatmapJSON struct {
	LinesPerBucket   int64        `json:"lines_per_bucket"`
	BucketLineWrites []int64      `json:"bucket_line_writes"`
	Regions          []RegionJSON `json:"regions"`
	UnmappedWrites   int64        `json:"unmapped_line_writes"`
}

// WampWindow is one write-amplification accounting window (one epoch, or
// the cumulative run). Line counts are flushed lines — write-backs the
// durability machine actually issued, the physical NVMM write volume.
// WriteAmp = bytes of all lines written back / committed row bytes;
// RowWriteAmp restricts the numerator to row traffic (persist-final + GC +
// intermediate); PersistAllRatio = lines a persist-every-write design would
// write back / row lines actually written back — the paper's dual-version
// savings, > 1 whenever rows see multiple writes per epoch.
type WampWindow struct {
	Epoch               uint64  `json:"epoch,omitempty"`
	LogicalBytes        int64   `json:"logical_bytes"`
	LogicalWrites       int64   `json:"logical_writes"`
	CommittedBytes      int64   `json:"committed_bytes"`
	CommittedRows       int64   `json:"committed_rows"`
	CounterfactualLines int64   `json:"counterfactual_lines"`
	RowLines            int64   `json:"row_lines"`
	TotalLines          int64   `json:"total_lines"`
	TotalBytes          int64   `json:"total_bytes"`
	WriteAmp            float64 `json:"write_amp"`
	RowWriteAmp         float64 `json:"row_write_amp"`
	PersistAllRatio     float64 `json:"persist_all_ratio"`
}

// WriteAmpJSON carries the cumulative window plus the recent per-epoch
// ring.
type WriteAmpJSON struct {
	Cumulative WampWindow   `json:"cumulative"`
	Epochs     []WampWindow `json:"epochs"`
}

// AttribJSON is the attribution endpoint payload
// (/debug/nvcaracal/attrib).
type AttribJSON struct {
	PerCause map[string]CauseCounts `json:"per_cause"`
	Heatmap  HeatmapJSON            `json:"heatmap"`
	WriteAmp WriteAmpJSON           `json:"write_amp"`
}

// JSON folds the full attribution state into the serving payload. Returns
// nil when a is nil so hosts can `omitempty` it.
func (a *Attrib) JSON() *AttribJSON {
	if a == nil {
		return nil
	}
	snap := a.Snapshot()
	out := &AttribJSON{PerCause: map[string]CauseCounts{}}
	for c := Cause(0); c < NumCauses; c++ {
		if snap.PerCause[c] != (CauseCounts{}) {
			out.PerCause[c.String()] = snap.PerCause[c]
		}
	}
	if h := a.heat.Load(); h != nil {
		out.Heatmap.LinesPerBucket = h.bucketLines
		out.Heatmap.BucketLineWrites = make([]int64, len(h.counts))
		for i := range h.counts {
			out.Heatmap.BucketLineWrites[i] = h.counts[i].Load()
		}
	}
	if t := a.regions.Load(); t != nil {
		byName := map[string]*RegionJSON{}
		var order []string
		for i, e := range t.entries {
			r, ok := byName[e.name]
			if !ok {
				r = &RegionJSON{Name: e.name}
				byName[e.name] = r
				order = append(order, e.name)
			}
			r.Lines += e.end - e.start
			r.LineWrites += t.writes[i].Load()
		}
		for _, name := range order {
			out.Heatmap.Regions = append(out.Heatmap.Regions, *byName[name])
		}
		out.Heatmap.UnmappedWrites = t.unmapped.Load()
	}
	a.mu.Lock()
	out.WriteAmp.Cumulative = a.foldTotals().window(0)
	out.WriteAmp.Cumulative.Epoch = 0
	out.WriteAmp.Epochs = append([]WampWindow(nil), a.epochs...)
	a.mu.Unlock()
	return out
}
