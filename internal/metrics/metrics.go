// Package metrics provides lightweight atomic counters for engine-level
// accounting: transient vs persistent version writes, cache behaviour, and
// memory breakdowns used to reproduce the paper's Figure 8.
//
// Counters are striped: each worker core updates its own cache-line-sized
// cell (via At) and Snapshot folds the cells, so the execution phase never
// has every core bouncing one counter cache line. The zero value is ready.
package metrics

import "sync/atomic"

// stripes is the number of worker counter cells. Core IDs index cells modulo
// this, so any core count works; beyond 64 cores stripes are shared pairwise.
// One extra cell beyond the worker stripes belongs to the coordinator, so
// cold-path updates never share a line with worker core 0.
const stripes = 64

// Cell is one stripe of the counters: the per-core view a worker updates
// without contending with other cores. Obtain one with Counters.At.
type Cell struct {
	txnsCommitted      atomic.Int64
	txnsAborted        atomic.Int64
	epochs             atomic.Int64
	transientVersions  atomic.Int64 // versions written only to DRAM
	persistentVersions atomic.Int64 // final versions written to NVMM
	rowReads           atomic.Int64 // persistent-row reads from NVMM
	cacheHits          atomic.Int64
	cacheMisses        atomic.Int64
	cacheBytes         atomic.Int64 // live cached-version payload bytes
	cacheEntries       atomic.Int64
	minorGCs           atomic.Int64
	majorGCs           atomic.Int64
	_                  [32]byte // pad to a multiple of 64B: no false sharing
}

// Counters aggregates engine events. All methods are safe for concurrent
// use. Hot paths should grab the executing core's Cell once via At and
// update that; cold paths (epoch boundaries, coordinators, tests) update
// the dedicated Coordinator cell, even while workers are running.
type Counters struct {
	cells [stripes + 1]Cell
}

// At returns the counter cell for a worker core. Per-cell totals are
// meaningless in isolation; Snapshot folds them.
func (c *Counters) At(core int) *Cell {
	return &c.cells[uint(core)%stripes]
}

// Coordinator returns the cell cold paths update. It is distinct from every
// worker cell, so coordinator-side accounting (epoch boundaries, eviction,
// recovery) never contends with worker core 0.
func (c *Counters) Coordinator() *Cell {
	return &c.cells[stripes]
}

// Monotonic holds the counters that only ever increase; interval deltas via
// Sub are meaningful for every field.
type Monotonic struct {
	TxnsCommitted      int64
	TxnsAborted        int64
	Epochs             int64
	TransientVersions  int64
	PersistentVersions int64
	RowReads           int64
	CacheHits          int64
	CacheMisses        int64
	MinorGCs           int64
	MajorGCs           int64
}

// Sub returns m - o field-wise.
func (m Monotonic) Sub(o Monotonic) Monotonic {
	return Monotonic{
		TxnsCommitted:      m.TxnsCommitted - o.TxnsCommitted,
		TxnsAborted:        m.TxnsAborted - o.TxnsAborted,
		Epochs:             m.Epochs - o.Epochs,
		TransientVersions:  m.TransientVersions - o.TransientVersions,
		PersistentVersions: m.PersistentVersions - o.PersistentVersions,
		RowReads:           m.RowReads - o.RowReads,
		CacheHits:          m.CacheHits - o.CacheHits,
		CacheMisses:        m.CacheMisses - o.CacheMisses,
		MinorGCs:           m.MinorGCs - o.MinorGCs,
		MajorGCs:           m.MajorGCs - o.MajorGCs,
	}
}

// Gauges holds the level-style counters: current values, not accumulations.
// Differencing them produces nonsense, so Snapshot.Sub carries them through
// from the newer snapshot unchanged.
type Gauges struct {
	CacheBytes   int64
	CacheEntries int64
}

// Snapshot is an immutable copy of all counters. The embedded sections keep
// field access flat (s.TxnsCommitted, s.CacheBytes) while making the
// monotonic-vs-gauge split explicit for interval arithmetic.
type Snapshot struct {
	Monotonic
	Gauges
}

// Sub returns the interval s - o: monotonic counters are differenced, gauges
// are taken from s (the newer snapshot) as-is.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Monotonic: s.Monotonic.Sub(o.Monotonic),
		Gauges:    s.Gauges,
	}
}

// TransientShare returns the fraction of version writes that stayed in
// DRAM, the quantity the paper's contention analysis revolves around.
func (s Snapshot) TransientShare() float64 {
	total := s.TransientVersions + s.PersistentVersions
	if total == 0 {
		return 0
	}
	return float64(s.TransientVersions) / float64(total)
}

// AddCommitted adds n committed transactions.
func (c *Cell) AddCommitted(n int64) { c.txnsCommitted.Add(n) }

// AddAborted adds n aborted transactions.
func (c *Cell) AddAborted(n int64) { c.txnsAborted.Add(n) }

// AddEpoch counts one completed epoch.
func (c *Cell) AddEpoch() { c.epochs.Add(1) }

// AddTransient counts a version written only to DRAM.
func (c *Cell) AddTransient() { c.transientVersions.Add(1) }

// AddPersistent counts a final version written to NVMM.
func (c *Cell) AddPersistent() { c.persistentVersions.Add(1) }

// AddRowRead counts a persistent-row read from NVMM.
func (c *Cell) AddRowRead() { c.rowReads.Add(1) }

// AddCacheHit counts a read served by a cached version.
func (c *Cell) AddCacheHit() { c.cacheHits.Add(1) }

// AddCacheMiss counts a read that fell through to NVMM.
func (c *Cell) AddCacheMiss() { c.cacheMisses.Add(1) }

// CacheAdd accounts a cached-version creation of n payload bytes.
func (c *Cell) CacheAdd(n int64) {
	c.cacheBytes.Add(n)
	c.cacheEntries.Add(1)
}

// CacheDrop accounts a cached-version eviction of n payload bytes. A cell's
// gauge may go negative (create on one core, evict on another); only the
// folded Snapshot totals are meaningful.
func (c *Cell) CacheDrop(n int64) {
	c.cacheBytes.Add(-n)
	c.cacheEntries.Add(-1)
}

// AddMinorGC counts a minor-collector cleanup.
func (c *Cell) AddMinorGC() { c.minorGCs.Add(1) }

// AddMajorGC counts a major-collector cleanup.
func (c *Cell) AddMajorGC() { c.majorGCs.Add(1) }

// Snapshot returns a copy of all counters, folding the striped cells and
// the coordinator cell.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	for i := range c.cells {
		cell := &c.cells[i]
		s.TxnsCommitted += cell.txnsCommitted.Load()
		s.TxnsAborted += cell.txnsAborted.Load()
		s.Epochs += cell.epochs.Load()
		s.TransientVersions += cell.transientVersions.Load()
		s.PersistentVersions += cell.persistentVersions.Load()
		s.RowReads += cell.rowReads.Load()
		s.CacheHits += cell.cacheHits.Load()
		s.CacheMisses += cell.cacheMisses.Load()
		s.CacheBytes += cell.cacheBytes.Load()
		s.CacheEntries += cell.cacheEntries.Load()
		s.MinorGCs += cell.minorGCs.Load()
		s.MajorGCs += cell.majorGCs.Load()
	}
	return s
}
