package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"nvcaracal"
	"nvcaracal/internal/arena"
	"nvcaracal/internal/index"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/wal"
)

// traced runs the workload twice in one process: once with the program's
// instruments off, as the base of trace.overhead_pct, then with them on
// through Config.Obs. It then times the layer packages' public functions
// at the workload's shape and returns the per-layer metrics.
func traced(name string, seed int64, dur time.Duration, t *tally) map[string]metric {
	w, _ := newWorkload(name, dur.Seconds())
	base := run(w, seed, dur, nil, t)
	baseTPS := float64(base.committed) / base.elapsed.Seconds()
	base = nil
	runtime.GC()
	debug.FreeOSMemory()

	o := nvcaracal.NewObs(nvcaracal.ObsConfig{
		Hists: true, Trace: true, TraceSpansPerCore: 1 << 16, FlightPerStripe: 1 << 16,
		Device: true, Attrib: true, Cores: cores,
	})
	w, _ = newWorkload(name, dur.Seconds())
	rs := run(w, seed, dur, o, t)
	tps := float64(rs.committed) / rs.elapsed.Seconds()

	txn := float64(max(rs.committed, 1))
	epochs := float64(max(rs.epochs, 1))
	d := rs.devDelta
	md := rs.metDelta
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// nvm: device counters over the timed phase.
	put("nvm.flush_lines_per_txn", float64(d.Flushes)/txn, "lines/txn")
	put("nvm.flushes_elided_per_txn", float64(d.FlushesElided)/txn, "lines/txn")
	put("nvm.line_writes_per_txn", float64(d.LineWrites)/txn, "lines/txn")
	put("nvm.line_reads_per_txn", float64(d.LineReads)/txn, "lines/txn")
	put("nvm.fences_per_epoch", float64(d.Fences)/epochs, "fences/epoch")
	flushes := func(c obs.Cause) int64 {
		return rs.attrib1.PerCause[c].Flushes - rs.attrib0.PerCause[c].Flushes
	}
	for _, c := range []struct {
		name  string
		cause obs.Cause
	}{
		{"persist_final", obs.CausePersistFinal}, {"wal_append", obs.CauseWALAppend},
		{"minor_gc", obs.CauseMinorGC}, {"major_gc", obs.CauseMajorGC}, {"alloc", obs.CauseAlloc},
	} {
		put("nvm.flush_lines_per_txn."+c.name, float64(flushes(c.cause))/txn, "lines/txn")
	}
	rowLines := flushes(obs.CausePersistFinal) + flushes(obs.CauseIntermediate) + flushes(obs.CauseMinorGC) + flushes(obs.CauseMajorGC)
	counterfactual := rs.attrib1.CounterfactualLines - rs.attrib0.CounterfactualLines
	put("nvm.persist_all_ratio", float64(counterfactual)/float64(max(rowLines, 1)), "ratio")
	put("nvm.fence_us_p50", us(histMedian(rs.fence1.Sub(rs.fence0))), "us")
	lineWrite, persistFence := deviceOps()
	put("nvm.op.line_write_ns", float64(lineWrite.Nanoseconds()), "ns")
	put("nvm.op.persist_fence_us", us(persistFence), "us")

	// pmem: allocator calls at one epoch's worth of persistent versions.
	perEpoch := int(max(md.PersistentVersions/max(rs.epochs, 1), 1))
	alloc, free := poolOps(perEpoch)
	put("pmem.alloc_ns", float64(alloc.Nanoseconds()), "ns")
	put("pmem.free_ns", float64(free.Nanoseconds()), "ns")
	put("pmem.row_mib", mib(rs.mem.RowBytes), "MiB")
	put("pmem.value_mib", mib(rs.mem.ValueBytes), "MiB")

	// wal: the input log, per transaction and per epoch append.
	put("wal.bytes_per_txn", float64(rs.logBytes)/txn, "B/txn")
	put("wal.append_us_per_epoch", us(walAppend(rs.lastBatch)), "us")

	// index: the DRAM row index at the workload's row count.
	get, putNS := indexOps(w, rs.rowCount)
	put("index.get_ns", float64(get.Nanoseconds()), "ns")
	put("index.put_ns", float64(putNS.Nanoseconds()), "ns")
	put("index.mib", mib(rs.mem.IndexBytes), "MiB")

	// arena: transient versions, one epoch's worth between resets.
	versions := int(max((md.TransientVersions+md.PersistentVersions)/max(rs.epochs, 1), 1))
	put("arena.alloc_ns", float64(arenaOps(versions, w.valueSize()).Nanoseconds()), "ns")
	put("arena.transient_peak_mib", mib(rs.mem.TransientPeak), "MiB")

	// core: per-epoch phase medians from the tracer's spans and the flight
	// recorder's durable-publish events.
	ph := phaseMedians(rs.spans, rs.flight, rs.epoch0, rs.epoch1)
	var sum time.Duration
	for i, n := range []string{"log", "init", "exec", "persist", "commit"} {
		put("core.phase."+n+"_ms", ms(ph[i]), "ms")
		sum += ph[i]
	}
	p50 := quantile(rs.commitLat, 0.5)
	put("core.unexplained_pct", 100*float64(p50-sum)/float64(max(p50, 1)), "%")
	put("core.transient_share", md.TransientShare(), "ratio")
	put("core.cache_hit_ratio", float64(md.CacheHits)/float64(max(md.CacheHits+md.CacheMisses, 1)), "ratio")
	put("core.row_reads_per_txn", float64(md.RowReads)/txn, "rows/txn")
	put("core.cache_mib", mib(rs.mem.CacheBytes), "MiB")
	put("core.major_gcs_per_epoch", float64(md.MajorGCs)/epochs, "gcs/epoch")
	put("core.minor_gcs_per_epoch", float64(md.MinorGCs)/epochs, "gcs/epoch")
	put("core.aborts_per_ktxn", 1000*float64(rs.aborted)/float64(max(rs.committed+rs.aborted, 1)), "aborts/ktxn")

	// recovery: the crashed epoch's RecoveryReport.
	if r := rs.report; r != nil {
		put("recovery.load_ms", ms(r.LoadTime), "ms")
		put("recovery.scan_ms", ms(r.ScanTime), "ms")
		put("recovery.revert_ms", ms(r.RevertTime), "ms")
		put("recovery.replay_ms", ms(r.ReplayTime), "ms")
		put("recovery.rows_scanned", float64(r.RowsScanned), "rows")
		put("recovery.txns_replayed", float64(r.TxnsReplayed), "txns")
	}

	// submit: the hand-off to the program. The open loop times Submit and
	// its schedule; a hand-batched caller hands whole epochs, so the call
	// is RunEpoch per transaction and lateness is the time it spends
	// generating between calls.
	if w.offeredRate() > 0 {
		put("submit.call_us_p50", us(quantile(rs.submitCalls, 0.5)), "us")
		put("loadgen.late_ms_max", ms(rs.maxLate), "ms")
	} else {
		put("submit.call_us_p50", us(quantile(rs.commitLat, 0.5))/float64(max(rs.committed/max(rs.epochs, 1), 1)), "us")
		put("loadgen.late_ms_max", ms(slices.Max(rs.genGaps)), "ms")
	}
	put("submit.txns_per_epoch", float64(rs.committed)/epochs, "txns/epoch")

	put("trace.overhead_pct", 100*(baseTPS-tps)/baseTPS, "%")
	fmt.Fprintf(os.Stderr, "nvperf: traced %.0f txn/s against %.0f untraced\n", tps, baseTPS)
	return out
}

// histMedian interpolates the median inside the power-of-two bucket that
// holds it, assuming observations spread evenly across the bucket.
func histMedian(s obs.HistSnapshot) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := float64(s.Count) / 2
	var cum float64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo, hi := float64(obs.BucketLower(b)), float64(obs.BucketUpper(b))
			return time.Duration(lo + (hi-lo)*(rank-cum)/float64(n))
		}
		cum += float64(n)
	}
	return 0
}

// phaseMedians returns the median per-epoch log, init, exec, persist and
// commit durations over epochs (from, to]. The serial commit records no
// commit span: its duration is the durable-publish event's, and the
// persist span, which holds it, is reported without it.
func phaseMedians(spans []obs.Span, events []obs.FlightEvent, from, to uint64) [5]time.Duration {
	type epochSpans struct{ d [5]time.Duration }
	byEpoch := map[uint64]*epochSpans{}
	for _, s := range spans {
		if s.Core != obs.CoordinatorCore || s.Epoch <= from || s.Epoch > to {
			continue
		}
		i := -1
		switch s.Phase {
		case obs.PhaseLog:
			i = 0
		case obs.PhaseInit:
			i = 1
		case obs.PhaseExec:
			i = 2
		case obs.PhasePersist:
			i = 3
		}
		if i < 0 {
			continue
		}
		e := byEpoch[s.Epoch]
		if e == nil {
			e = &epochSpans{}
			byEpoch[s.Epoch] = e
		}
		e.d[i] = time.Duration(s.Dur)
	}
	for _, ev := range events {
		if e := byEpoch[ev.Epoch]; e != nil && ev.Type == obs.EvDurablePublish {
			e.d[4] = time.Duration(ev.A)
		}
	}
	var cols [5][]time.Duration
	for _, e := range byEpoch {
		e.d[3] -= e.d[4]
		for i := range cols {
			cols[i] = append(cols[i], e.d[i])
		}
	}
	var med [5]time.Duration
	for i := range cols {
		med[i] = quantile(cols[i], 0.5)
	}
	return med
}

// newDevice returns a fresh device with the run's latency model.
func newDevice(size int64) *nvm.Device {
	return nvm.New(size, nvm.WithLatency(readLatency, writeLatency), nvm.WithFenceLatency(fenceLatency))
}

// deviceOps times a one-line WriteAt, and a one-line WriteAt followed by
// Persist and Fence, on a fresh device.
func deviceOps() (lineWrite, persistFence time.Duration) {
	const lines = 1 << 14
	dev := newDevice(lines * nvm.LineSize)
	buf := make([]byte, nvm.LineSize)
	const n = 50_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		dev.WriteAt(buf, int64(i%lines)*nvm.LineSize)
	}
	lineWrite = time.Since(t0) / n
	const m = 10_000
	t0 = time.Now()
	for i := 0; i < m; i++ {
		off := int64(i%lines) * nvm.LineSize
		dev.WriteAt(buf, off)
		dev.Persist(off, nvm.LineSize)
		dev.Fence()
	}
	return lineWrite, time.Since(t0) / m
}

// poolOps times Pool.Alloc and Pool.Free on a fresh formatted device, in
// rounds of perEpoch calls each closed by a checkpoint and its fence.
func poolOps(perEpoch int) (alloc, free time.Duration) {
	const rounds = 32
	n := int64(perEpoch * rounds)
	l := pmem.Layout{
		Cores: 1, RowSize: 256, RowsPerCore: n, ValueSize: 1024, ValuesPerCore: 64,
		LogBytes: 1 << 16, Counters: 1, RingCap: 2*n + 1024,
	}
	if err := l.Finalize(); err != nil {
		panic(err)
	}
	dev := newDevice(l.TotalBytes())
	if err := pmem.Format(dev, l); err != nil {
		panic(err)
	}
	p := pmem.RowPool(dev, l, 0)
	checkpoint := func(e uint64) {
		p.Checkpoint(e)
		dev.Fence()
		p.Checkpointed()
	}
	offs := make([]int64, 0, n)
	t0 := time.Now()
	for e := 0; e < rounds; e++ {
		for i := 0; i < perEpoch; i++ {
			off, err := p.Alloc()
			if err != nil {
				panic(err)
			}
			offs = append(offs, off)
		}
		checkpoint(uint64(e + 1))
	}
	alloc = time.Since(t0) / time.Duration(n)
	t0 = time.Now()
	for e := 0; e < rounds; e++ {
		for _, off := range offs[e*perEpoch : (e+1)*perEpoch] {
			p.Free(off)
		}
		checkpoint(uint64(rounds + e + 1))
	}
	return alloc, time.Since(t0) / time.Duration(n)
}

// walAppend times Log.WriteEpoch of one recorded batch on a fresh device.
func walAppend(batch []*nvcaracal.Txn) time.Duration {
	recs := make([]wal.Record, len(batch))
	for i, t := range batch {
		recs[i] = wal.Record{Type: t.TypeID, Data: t.Input}
	}
	const size = 8 << 20
	dev := newDevice(size)
	l := wal.New(dev, 0, size)
	const n = 200
	t0 := time.Now()
	for e := uint64(1); e <= n; e++ {
		if err := l.WriteEpoch(e, recs); err != nil {
			panic(err)
		}
	}
	return time.Since(t0) / n
}

// indexOps times index.Map Put of rows keys and Get of keys drawn from
// the workload's key distribution.
func indexOps(w workload, rows int) (get, put time.Duration) {
	m := index.New[int64](cores * 16)
	rows = max(rows, 1)
	t0 := time.Now()
	for i := 0; i < rows; i++ {
		m.Put(index.Key{Table: 1, ID: uint64(i)}, int64(i))
	}
	put = time.Since(t0) / time.Duration(rows)
	rng := rand.New(rand.NewSource(1))
	const n = 400_000
	keys := make([]index.Key, n)
	for i := range keys {
		keys[i] = index.Key{Table: 1, ID: w.sampleKey(rng, rows)}
	}
	var hits int
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := m.Get(k); ok {
			hits++
		}
	}
	get = time.Since(t0) / n
	if hits != n {
		panic(fmt.Sprintf("index: %d of %d keys found", hits, n))
	}
	return get, put
}

// arenaOps times Arena.Alloc of size-byte versions, perEpoch calls between
// resets.
func arenaOps(perEpoch, size int) time.Duration {
	a := arena.New()
	const rounds = 64
	t0 := time.Now()
	for e := 0; e < rounds; e++ {
		for i := 0; i < perEpoch; i++ {
			a.Alloc(size)
		}
		a.Reset()
	}
	return time.Since(t0) / time.Duration(rounds*perEpoch)
}
