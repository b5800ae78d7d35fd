package core

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// Per-cause golden attribution counts. Like TestGoldenAccessCounts, these
// pin the scientific output — here the *decomposition* of the device traffic
// by cause — for fixed seeded workloads. Any drift is a bug or a deliberate
// model change that must update the literals (GOLDEN_PRINT=1 to regenerate).

type attribGoldenCase struct {
	name     string
	cores    int
	mode     StorageMode
	workload func(*testing.T, *DB)
	perCause map[obs.Cause]obs.CauseCounts
}

// ycsbGoldenWorkload is a seeded YCSB-flavoured workload: a uniform-key
// read/update mix with a hot-key skew component, several updates landing on
// the same row per epoch so the dual-version design's final-write collapse
// is visible in the attribution.
func ycsbGoldenWorkload(t *testing.T, db *DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(54321))
	const rows = 300
	val := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	var batch []*Txn
	for k := uint64(0); k < rows; k++ {
		batch = append(batch, mkInsert(k, val(64+int(k%128))))
	}
	mustRun(t, db, batch)

	for e := 0; e < 5; e++ {
		batch = batch[:0]
		for i := 0; i < 400; i++ {
			var k uint64
			if rng.Intn(10) < 4 {
				k = uint64(rng.Intn(8)) // hot set: repeated writers per epoch
			} else {
				k = uint64(rng.Intn(rows))
			}
			if rng.Intn(2) == 0 {
				batch = append(batch, mkSet(k, val(64+int(k%128))))
			} else {
				batch = append(batch, mkRMW(k, byte(i)))
			}
		}
		mustRun(t, db, batch)
	}
}

func attribGoldenCases() []attribGoldenCase {
	return []attribGoldenCase{
		{
			name: "kv-nvcaracal-1core", cores: 1, mode: ModeNVCaracal, workload: goldenWorkload,
			perCause: map[obs.Cause]obs.CauseCounts{
				obs.CauseOther:        {LineReads: 805, LineWrites: 56, BytesRead: 51329, BytesWritten: 448, Flushes: 56},
				obs.CausePersistFinal: {LineReads: 786, LineWrites: 4272, BytesRead: 50304, BytesWritten: 97393, Flushes: 2389, Fences: 14},
				obs.CauseWALAppend:    {LineReads: 0, LineWrites: 1508, BytesRead: 0, BytesWritten: 96097, Flushes: 1508, Fences: 7},
				obs.CauseMinorGC:      {LineReads: 0, LineWrites: 657, BytesRead: 0, BytesWritten: 4380},
				obs.CauseMajorGC:      {LineReads: 111, LineWrites: 666, BytesRead: 7104, BytesWritten: 4440, Flushes: 111},
				obs.CauseAlloc:        {LineReads: 123, LineWrites: 500, BytesRead: 984, BytesWritten: 18416, Flushes: 83},
			},
		},
		{
			name: "kv-hybrid-2core", cores: 2, mode: ModeHybrid, workload: goldenWorkload,
			perCause: map[obs.Cause]obs.CauseCounts{
				obs.CauseOther:        {LineReads: 805, LineWrites: 56, BytesRead: 51329, BytesWritten: 448, Flushes: 56},
				obs.CausePersistFinal: {LineReads: 786, LineWrites: 4272, BytesRead: 50304, BytesWritten: 97393, Flushes: 2389, Fences: 14},
				obs.CauseIntermediate: {LineReads: 0, LineWrites: 912, BytesRead: 0, BytesWritten: 31942, Flushes: 912},
				obs.CauseMinorGC:      {LineReads: 0, LineWrites: 657, BytesRead: 0, BytesWritten: 4380},
				obs.CauseMajorGC:      {LineReads: 111, LineWrites: 666, BytesRead: 7104, BytesWritten: 4440, Flushes: 111, Fences: 5},
				obs.CauseAlloc:        {LineReads: 123, LineWrites: 542, BytesRead: 984, BytesWritten: 18752, Flushes: 112},
			},
		},
		{
			name: "ycsb-nvcaracal-2core", cores: 2, mode: ModeNVCaracal, workload: ycsbGoldenWorkload,
			perCause: map[obs.Cause]obs.CauseCounts{
				obs.CauseOther:        {LineReads: 1184, LineWrites: 48, BytesRead: 75659, BytesWritten: 384, Flushes: 48},
				obs.CausePersistFinal: {LineReads: 1175, LineWrites: 7227, BytesRead: 75200, BytesWritten: 169613, Flushes: 3998, Fences: 12},
				obs.CauseWALAppend:    {LineReads: 0, LineWrites: 2652, BytesRead: 0, BytesWritten: 169273, Flushes: 2652, Fences: 6},
				obs.CauseMinorGC:      {LineReads: 0, LineWrites: 684, BytesRead: 0, BytesWritten: 4560},
				obs.CauseMajorGC:      {LineReads: 436, LineWrites: 2616, BytesRead: 27904, BytesWritten: 17440, Flushes: 436},
				obs.CauseAlloc:        {LineReads: 316, LineWrites: 808, BytesRead: 2528, BytesWritten: 26752, Flushes: 138},
			},
		},
	}
}

func TestGoldenAttribCounts(t *testing.T) {
	for _, gc := range attribGoldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			opts := testOpts(gc.cores)
			opts.Mode = gc.mode
			o := obs.New(obs.Config{Attrib: true})
			opts.Obs = o
			a := o.Attrib()
			dev := nvm.New(opts.Layout.TotalBytes(), nvm.WithAttrib(a))
			db, err := Open(dev, opts)
			if err != nil {
				t.Fatal(err)
			}
			dev.ResetStats()
			a.Reset() // exclude Format, like the device goldens
			gc.workload(t, db)

			snap := a.Snapshot()
			if os.Getenv("GOLDEN_PRINT") != "" {
				fmt.Printf("%s:\n", gc.name)
				for c := obs.Cause(0); c < obs.NumCauses; c++ {
					cc := snap.PerCause[c]
					if cc == (obs.CauseCounts{}) {
						continue
					}
					fmt.Printf("  obs.%s: {LineReads: %d, LineWrites: %d, BytesRead: %d, BytesWritten: %d, Flushes: %d, FlushesElided: %d, Fences: %d},\n",
						causeIdents[c], cc.LineReads, cc.LineWrites, cc.BytesRead, cc.BytesWritten, cc.Flushes, cc.FlushesElided, cc.Fences)
				}
				return
			}

			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				want := gc.perCause[c]
				if got := snap.PerCause[c]; got != want {
					t.Errorf("cause %s drifted:\n got  %+v\n want %+v", c, got, want)
				}
			}
			// The decomposition must tile the device's own counters exactly.
			st := dev.Stats()
			var rw, rr, bw, br, fl, el, fe int64
			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				cc := snap.PerCause[c]
				rw += cc.LineWrites
				rr += cc.LineReads
				bw += cc.BytesWritten
				br += cc.BytesRead
				fl += cc.Flushes
				el += cc.FlushesElided
				fe += cc.Fences
			}
			if rw != st.LineWrites || rr != st.LineReads || bw != st.BytesWritten || br != st.BytesRead {
				t.Errorf("attribution does not tile Stats: r=%d/%d w=%d/%d br=%d/%d bw=%d/%d",
					rr, st.LineReads, rw, st.LineWrites, br, st.BytesRead, bw, st.BytesWritten)
			}
			if fl > st.Flushes {
				t.Errorf("attributed flushes %d exceed device write-backs %d", fl, st.Flushes)
			}
			// Fences and elided flushes are recorded at the device layer with
			// the issuing cause, so they must tile the device totals exactly.
			if fe != st.Fences {
				t.Errorf("attributed fences %d do not tile device fences %d", fe, st.Fences)
			}
			if el != st.FlushesElided {
				t.Errorf("attributed elided flushes %d do not tile device count %d", el, st.FlushesElided)
			}
		})
	}
}

// causeIdents maps causes to their Go identifiers for GOLDEN_PRINT output.
var causeIdents = map[obs.Cause]string{
	obs.CauseOther:        "CauseOther",
	obs.CausePersistFinal: "CausePersistFinal",
	obs.CauseIntermediate: "CauseIntermediate",
	obs.CauseWALAppend:    "CauseWALAppend",
	obs.CauseIdxJournal:   "CauseIdxJournal",
	obs.CauseMinorGC:      "CauseMinorGC",
	obs.CauseMajorGC:      "CauseMajorGC",
	obs.CauseRecovery:     "CauseRecovery",
	obs.CauseAlloc:        "CauseAlloc",
}

// TestGoldenCauseCountsWithoutAttrib pins that the device counts every
// access by cause whether or not an Attrib is attached: with none, the
// device's CauseCounts must equal the attribution goldens above and tile
// its Stats exactly, on the TestGoldenAccessCounts cases as well.
func TestGoldenCauseCountsWithoutAttrib(t *testing.T) {
	run := func(t *testing.T, cores int, mode StorageMode, workload func(*testing.T, *DB)) *nvm.Device {
		opts := testOpts(cores)
		opts.Mode = mode
		if mode == ModeAllNVMM {
			opts.CacheEnabled = false
		}
		dev := nvm.New(opts.Layout.TotalBytes())
		db, err := Open(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		workload(t, db)
		var sum obs.CauseCounts
		for _, cc := range dev.CauseCounts() {
			sum.LineReads += cc.LineReads
			sum.LineWrites += cc.LineWrites
			sum.BytesRead += cc.BytesRead
			sum.BytesWritten += cc.BytesWritten
			sum.Flushes += cc.Flushes
			sum.FlushesElided += cc.FlushesElided
			sum.Fences += cc.Fences
		}
		st := dev.Stats()
		want := obs.CauseCounts{
			LineReads: st.LineReads, LineWrites: st.LineWrites,
			BytesRead: st.BytesRead, BytesWritten: st.BytesWritten,
			Flushes: st.Flushes, FlushesElided: st.FlushesElided, Fences: st.Fences,
		}
		if sum != want {
			t.Errorf("per-cause counts do not tile Stats:\n sum   %+v\n stats %+v", sum, st)
		}
		return dev
	}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			if st := run(t, gc.cores, gc.mode, goldenWorkload).Stats(); st != gc.stats {
				t.Errorf("device stats drifted:\n got  %+v\n want %+v", st, gc.stats)
			}
		})
	}
	for _, gc := range attribGoldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			got := run(t, gc.cores, gc.mode, gc.workload).CauseCounts()
			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				if got[c] != gc.perCause[c] {
					t.Errorf("cause %s drifted:\n got  %+v\n want %+v", c, got[c], gc.perCause[c])
				}
			}
		})
	}
}
