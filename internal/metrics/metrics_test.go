package metrics

import (
	"sync"
	"testing"
)

func TestCountersAccumulate(t *testing.T) {
	var c Counters
	c.Coordinator().AddCommitted(5)
	c.Coordinator().AddAborted(2)
	c.Coordinator().AddEpoch()
	c.Coordinator().AddTransient()
	c.Coordinator().AddTransient()
	c.Coordinator().AddPersistent()
	c.Coordinator().AddRowRead()
	c.Coordinator().AddCacheHit()
	c.Coordinator().AddCacheMiss()
	c.Coordinator().CacheAdd(100)
	c.Coordinator().AddMinorGC()
	c.Coordinator().AddMajorGC()
	s := c.Snapshot()
	if s.TxnsCommitted != 5 || s.TxnsAborted != 2 || s.Epochs != 1 {
		t.Fatalf("txn counters: %+v", s)
	}
	if s.TransientVersions != 2 || s.PersistentVersions != 1 {
		t.Fatalf("version counters: %+v", s)
	}
	if s.CacheBytes != 100 || s.CacheEntries != 1 {
		t.Fatalf("cache gauges: %+v", s)
	}
	if s.MinorGCs != 1 || s.MajorGCs != 1 {
		t.Fatalf("gc counters: %+v", s)
	}
}

func TestCacheDrop(t *testing.T) {
	var c Counters
	c.Coordinator().CacheAdd(100)
	c.Coordinator().CacheAdd(50)
	c.Coordinator().CacheDrop(100)
	s := c.Snapshot()
	if s.CacheBytes != 50 || s.CacheEntries != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestSub(t *testing.T) {
	var c Counters
	c.Coordinator().AddCommitted(10)
	before := c.Snapshot()
	c.Coordinator().AddCommitted(7)
	c.Coordinator().AddTransient()
	d := c.Snapshot().Sub(before)
	if d.TxnsCommitted != 7 || d.TransientVersions != 1 {
		t.Fatalf("Sub: %+v", d)
	}
}

func TestTransientShare(t *testing.T) {
	var c Counters
	if got := c.Snapshot().TransientShare(); got != 0 {
		t.Fatalf("empty share = %v", got)
	}
	for i := 0; i < 3; i++ {
		c.Coordinator().AddTransient()
	}
	c.Coordinator().AddPersistent()
	if got := c.Snapshot().TransientShare(); got != 0.75 {
		t.Fatalf("share = %v, want 0.75", got)
	}
}

// TestCoordinatorCellIsolated pins the coordinator cell apart from the
// worker cells: cold-path updates must leave every worker cell untouched.
func TestCoordinatorCellIsolated(t *testing.T) {
	var c Counters
	c.Coordinator().AddEpoch()
	c.Coordinator().CacheDrop(10)
	c.Coordinator().AddMajorGC()
	if got := c.At(0).epochs.Load(); got != 0 {
		t.Fatalf("coordinator update wrote worker cell 0: epochs = %d", got)
	}
	if got := c.At(0).cacheBytes.Load(); got != 0 {
		t.Fatalf("coordinator update wrote worker cell 0: cacheBytes = %d", got)
	}
	co := c.Coordinator()
	if co == c.At(0) || co == c.At(stripes) {
		t.Fatal("coordinator cell aliases a worker cell")
	}
	if co.epochs.Load() != 1 || co.cacheBytes.Load() != -10 || co.majorGCs.Load() != 1 {
		t.Fatal("coordinator cell missed its updates")
	}
	s := c.Snapshot()
	if s.Epochs != 1 || s.CacheBytes != -10 || s.MajorGCs != 1 {
		t.Fatalf("snapshot must fold the coordinator cell: %+v", s)
	}
}

// TestSubGaugeSemantics pins interval arithmetic: monotonic counters are
// differenced, gauges report the newer snapshot's level.
func TestSubGaugeSemantics(t *testing.T) {
	var c Counters
	c.Coordinator().AddCommitted(3)
	c.Coordinator().CacheAdd(500)
	before := c.Snapshot()
	c.Coordinator().AddCommitted(4)
	c.Coordinator().CacheAdd(200)
	after := c.Snapshot()
	d := after.Sub(before)
	if d.TxnsCommitted != 4 {
		t.Fatalf("monotonic delta: %+v", d)
	}
	if d.CacheBytes != 700 || d.CacheEntries != 2 {
		t.Fatalf("gauges must carry the newer level, not a delta: %+v", d)
	}
}

// TestCoordinatorWorkerConcurrent drives the coordinator cell from a
// coordinator goroutine while workers hammer their cells — the pattern the
// engine uses at epoch boundaries. Run under -race in CI.
func TestCoordinatorWorkerConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cell := c.At(w)
			for i := 0; i < per; i++ {
				cell.AddCommitted(1)
				cell.AddTransient()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			c.Coordinator().AddEpoch()
			c.Coordinator().CacheDrop(1)
			c.Snapshot()
		}
	}()
	wg.Wait()
	s := c.Snapshot()
	if s.TxnsCommitted != workers*per || s.Epochs != per || s.CacheBytes != -per {
		t.Fatalf("totals: %+v", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Coordinator().AddTransient()
				c.Coordinator().CacheAdd(1)
				c.Coordinator().CacheDrop(1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.TransientVersions != 8000 {
		t.Fatalf("TransientVersions = %d", s.TransientVersions)
	}
	if s.CacheBytes != 0 || s.CacheEntries != 0 {
		t.Fatalf("cache gauges drifted: %+v", s)
	}
}
