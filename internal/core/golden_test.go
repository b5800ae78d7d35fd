package core

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"nvcaracal/internal/nvm"
)

// The golden access-count test pins the device and engine counters for a
// fixed seeded workload. The counters are the reproduction's scientific
// output — every figure in the paper is a function of how many NVMM line
// accesses each design performs — so any change to the device or engine
// that shifts them is either a bug or a deliberate model change that must
// update these goldens with justification (see DESIGN.md, "Counter
// invariance").
//
// Run with GOLDEN_PRINT=1 to print the literals for updating.

type goldenCase struct {
	name  string
	cores int
	mode  StorageMode
	stats nvm.Stats
	met   goldenMetrics
}

// goldenMetrics is the subset of metrics.Snapshot that is deterministic for
// a fixed workload (all of it is, for this workload).
type goldenMetrics struct {
	TxnsCommitted, TxnsAborted, Epochs           int64
	TransientVersions, PersistentVersions        int64
	RowReads, CacheHits, CacheMisses             int64
	CacheBytes, CacheEntries, MinorGCs, MajorGCs int64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "nvcaracal-1core", cores: 1, mode: ModeNVCaracal,
			stats: nvm.Stats{LineReads: 1825, LineWrites: 7659, BytesRead: 109721, BytesWritten: 221174, Flushes: 4147, Fences: 21, LinesFenced: 4051},
			met:   goldenMetrics{TxnsCommitted: 1210, TxnsAborted: 15, Epochs: 7, TransientVersions: 425, PersistentVersions: 786, RowReads: 5, CacheHits: 562, CacheMisses: 5, CacheBytes: 15389, CacheEntries: 126, MinorGCs: 219, MajorGCs: 111},
		},
		{
			name: "nvcaracal-4core", cores: 4, mode: ModeNVCaracal,
			stats: nvm.Stats{LineReads: 1824, LineWrites: 7785, BytesRead: 109713, BytesWritten: 222182, Flushes: 4216, Fences: 21, LinesFenced: 4120},
			met:   goldenMetrics{TxnsCommitted: 1210, TxnsAborted: 15, Epochs: 7, TransientVersions: 425, PersistentVersions: 786, RowReads: 5, CacheHits: 562, CacheMisses: 5, CacheBytes: 15389, CacheEntries: 126, MinorGCs: 219, MajorGCs: 111},
		},
		{
			name: "hybrid-2core", cores: 2, mode: ModeHybrid,
			stats: nvm.Stats{LineReads: 1825, LineWrites: 7105, BytesRead: 109721, BytesWritten: 157355, Flushes: 3580, Fences: 19, LinesFenced: 3077},
			met:   goldenMetrics{TxnsCommitted: 1210, TxnsAborted: 15, Epochs: 7, TransientVersions: 425, PersistentVersions: 786, RowReads: 5, CacheHits: 562, CacheMisses: 5, CacheBytes: 15389, CacheEntries: 126, MinorGCs: 219, MajorGCs: 111},
		},
		{
			name: "all-nvmm-2core", cores: 2, mode: ModeAllNVMM,
			stats: nvm.Stats{LineReads: 5993, LineWrites: 10595, BytesRead: 287895, BytesWritten: 302512, Flushes: 7070, Fences: 19, LinesFenced: 5346},
			met:   goldenMetrics{TxnsCommitted: 1210, TxnsAborted: 15, Epochs: 7, TransientVersions: 425, PersistentVersions: 786, RowReads: 567, CacheHits: 0, CacheMisses: 567, CacheBytes: 0, CacheEntries: 0, MinorGCs: 219, MajorGCs: 111},
		},
	}
}

// goldenWorkload drives a deterministic mixed workload: inserts of varying
// value sizes (inline and pooled), updates, multi-writer rows, RMWs, user
// aborts, and deletes, across enough epochs to exercise minor and major GC
// and cache eviction.
func goldenWorkload(t *testing.T, db *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(12345))
	val := func(key uint64, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256)) ^ byte(key)
		}
		return b
	}
	// Value size alternates inline (<= 96) and pooled (> 96, <= 512).
	size := func(key uint64) int {
		if key%3 == 0 {
			return 200 + int(key%300)
		}
		return 8 + int(key%80)
	}

	const rows = 200
	live := make([]bool, rows)
	// Epoch 1: create the table.
	var batch []*Txn
	for k := uint64(0); k < rows; k++ {
		batch = append(batch, mkInsert(k, val(k, size(k))))
		live[k] = true
	}
	mustRun(t, db, batch)

	// Epochs 2..7: mixed updates. deleted/inserted track keys whose index
	// entry changes this epoch so ops stay consistent within and across
	// epochs (a deterministic database knows its write set is valid).
	for e := 0; e < 6; e++ {
		batch = batch[:0]
		deleted := make(map[uint64]bool)
		inserted := make(map[uint64]bool)
		for i := 0; i < rows; i++ {
			k := uint64(rng.Intn(rows))
			op := rng.Intn(10)
			switch {
			case op < 4:
				if live[k] && !deleted[k] {
					batch = append(batch, mkSet(k, val(k, size(k+uint64(e)))))
				}
			case op < 7:
				if live[k] && !deleted[k] {
					batch = append(batch, mkRMW(k, byte(i)))
				}
			case op == 7:
				if live[k] && !deleted[k] {
					batch = append(batch, mkAbortSet(k, val(k, 16), i%5 == 0))
				}
			case op == 8:
				// Multi-writer hot row: two more writers on a fixed key.
				if live[7] && !deleted[7] {
					batch = append(batch, mkSet(7, val(7, 40)), mkRMW(7, byte(e)))
				}
			default:
				if live[k] && !deleted[k] && !inserted[k] {
					batch = append(batch, mkDelete(k))
					deleted[k] = true
				} else if !live[k] && !deleted[k] && !inserted[k] {
					batch = append(batch, mkInsert(k, val(k, size(k))))
					inserted[k] = true
				}
			}
		}
		mustRun(t, db, batch)
		for k := range deleted {
			live[k] = false
		}
		for k := range inserted {
			live[k] = true
		}
	}
}

func TestGoldenAccessCounts(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			opts := testOpts(gc.cores)
			opts.Mode = gc.mode
			if gc.mode == ModeAllNVMM {
				opts.CacheEnabled = false
			}
			dev := nvm.New(opts.Layout.TotalBytes())
			db, err := Open(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			dev.ResetStats() // exclude Format: pin the workload's accesses only
			goldenWorkload(t, db)

			st := dev.Stats()
			m := db.Metrics()
			got := goldenMetrics{
				TxnsCommitted: m.TxnsCommitted, TxnsAborted: m.TxnsAborted, Epochs: m.Epochs,
				TransientVersions: m.TransientVersions, PersistentVersions: m.PersistentVersions,
				RowReads: m.RowReads, CacheHits: m.CacheHits, CacheMisses: m.CacheMisses,
				CacheBytes: m.CacheBytes, CacheEntries: m.CacheEntries,
				MinorGCs: m.MinorGCs, MajorGCs: m.MajorGCs,
			}
			if os.Getenv("GOLDEN_PRINT") != "" {
				fmt.Printf("%s:\n  stats: nvm.Stats{LineReads: %d, LineWrites: %d, BytesRead: %d, BytesWritten: %d, Flushes: %d, Fences: %d, LinesFenced: %d},\n  met:   goldenMetrics{TxnsCommitted: %d, TxnsAborted: %d, Epochs: %d, TransientVersions: %d, PersistentVersions: %d, RowReads: %d, CacheHits: %d, CacheMisses: %d, CacheBytes: %d, CacheEntries: %d, MinorGCs: %d, MajorGCs: %d},\n",
					gc.name, st.LineReads, st.LineWrites, st.BytesRead, st.BytesWritten, st.Flushes, st.Fences, st.LinesFenced,
					got.TxnsCommitted, got.TxnsAborted, got.Epochs, got.TransientVersions, got.PersistentVersions,
					got.RowReads, got.CacheHits, got.CacheMisses, got.CacheBytes, got.CacheEntries, got.MinorGCs, got.MajorGCs)
				return
			}
			if st != gc.stats {
				t.Errorf("device stats drifted:\n got  %+v\n want %+v", st, gc.stats)
			}
			if got != gc.met {
				t.Errorf("engine metrics drifted:\n got  %+v\n want %+v", got, gc.met)
			}
		})
	}
}
