package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nvcaracal"
	"nvcaracal/internal/crashcheck/kit"
)

// The pipeline benchmark contrasts the engine's two epoch-commit modes —
// serial (the commit runs inline, on the caller's critical path) and
// pipeline (Pipeline: the same commit, including parallel pool staging, on
// a background committer overlapped with the next epoch) — across worker
// counts and workloads. The committed BENCH_pipeline.json is the
// regression artifact for the overlap: speedups shrinking toward 1.0 mean
// the commit crept back onto the critical path.

// PipelineCell is one (workload, mode, workers) run.
type PipelineCell struct {
	Workload string `json:"workload"`
	// Mode is "serial" or "pipeline".
	Mode      string  `json:"mode"`
	Workers   int     `json:"workers"`
	Epochs    int     `json:"epochs"`
	EpochTxns int     `json:"epoch_txns"`
	KTPS      float64 `json:"ktps"`
	// EpochMS is the mean wall-clock per epoch over the whole measured
	// run, INCLUDING the final WaitDurable drain — the pipeline may not
	// bank an undrained commit.
	EpochMS float64 `json:"epoch_ms"`
	// SpeedupVsSerial is this cell's serial-mode EpochMS divided by its
	// own, for the same workload and worker count (1.0 for serial cells).
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// Note annotates known-anomalous cells so the committed artifact is not
	// misread as a regression (see EXPERIMENTS.md).
	Note string `json:"note,omitempty"`
}

// lowWorkerOverlapNote explains sub-1.0 speedups at low worker counts: the
// commit is too short to hide at this scale, and the background
// committer's busy-wait device accesses interfere with the next epoch's
// workers.
const lowWorkerOverlapNote = "expected at low worker counts: the commit is " +
	"shorter than the overlap machinery costs, and the committer's busy-wait device " +
	"model contends with the next epoch's workers"

// PipelineReport is the schema of BENCH_pipeline.json.
type PipelineReport struct {
	Benchmark  string         `json:"benchmark"`
	Go         string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Scale      string         `json:"scale"`
	Cells      []PipelineCell `json:"cells"`
}

// pipelineModes maps mode names onto the engine's Pipeline knob.
var pipelineModes = []struct {
	name     string
	pipeline bool
}{
	{"serial", false},
	{"pipeline", true},
}

// RunPipelineReport sweeps serial/pipeline across 1/2/4/8 workers on
// the kv, ycsb (medium contention), and smallbank (low contention)
// workloads.
func RunPipelineReport(o Options) (PipelineReport, error) {
	s := o.Scale
	rep := PipelineReport{
		Benchmark:  "epoch-pipeline",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      s.Name,
	}
	for _, workload := range []string{"kv", "ycsb", "smallbank"} {
		for _, workers := range []int{1, 2, 4, 8} {
			var serialMS float64
			for _, mode := range pipelineModes {
				sc := s
				sc.Cores = workers
				m, err := sc.runPipelineCell(workload, mode.pipeline, o.Seed)
				if err != nil {
					return rep, fmt.Errorf("%s/%s/%dw: %w", workload, mode.name, workers, err)
				}
				c := PipelineCell{
					Workload:  workload,
					Mode:      mode.name,
					Workers:   workers,
					Epochs:    m.epochs,
					EpochTxns: s.EpochTxns,
					KTPS:      m.tps / 1000,
					EpochMS:   m.epochMS,
				}
				if mode.name == "serial" {
					serialMS = m.epochMS
				}
				if serialMS > 0 {
					c.SpeedupVsSerial = serialMS / m.epochMS
				}
				if mode.name != "serial" && workers <= 2 && c.SpeedupVsSerial < 1 {
					c.Note = lowWorkerOverlapNote
				}
				rep.Cells = append(rep.Cells, c)
				o.logf("pipeline-bench %-9s %dw %-8s %8.1f ktps, epoch %6.2fms (%.2fx serial)",
					workload, workers, mode.name, c.KTPS, c.EpochMS, c.SpeedupVsSerial)
				freeMem()
			}
		}
	}
	return rep, nil
}

// pipelineMeasured is a drained whole-run measurement.
type pipelineMeasured struct {
	epochs  int
	tps     float64
	epochMS float64
}

// runPipelineCell sets up one workload instance with the given commit mode
// and times rounds of s.Epochs back-to-back epochs. Within a round there is
// deliberately no drain — that is where the pipeline overlaps — and the
// clock stops only after the round's WaitDurable, so every mode pays for
// its full commit work. Batches are pre-generated outside the clock (they
// model the client side), and short rounds repeat until the window clears
// the timer noise floor, like runNVC.
func (s Scale) runPipelineCell(workload string, pipeline bool, seed int64) (pipelineMeasured, error) {
	db, gen, err := s.setupPipelineWorkload(workload, pipeline, seed)
	if err != nil {
		return pipelineMeasured{}, err
	}
	// Two unmeasured warmup epochs: the first epochs after a load pay
	// one-off allocator and major-GC ramp costs that otherwise skew
	// whichever cell of the sweep runs first (profiling showed the skew
	// reached tens of percent on the 1-worker cells). The epoch-index
	// cursor advances through the warmup so churn-keyed generators never
	// see a reused index.
	const warmup = 2
	for e := 0; e < warmup; e++ {
		if _, err := db.RunEpoch(gen(e)); err != nil {
			return pipelineMeasured{}, err
		}
	}
	db.WaitDurable()
	var total time.Duration
	committed, ran := 0, 0
	for round := 0; round == 0 || (total < minMeasure && round < 50); round++ {
		batches := make([][]*nvcaracal.Txn, s.Epochs)
		for i := range batches {
			batches[i] = gen(warmup + ran + i)
		}
		start := time.Now()
		for _, b := range batches {
			res, err := db.RunEpoch(b)
			if err != nil {
				return pipelineMeasured{}, err
			}
			committed += res.Committed + res.Aborted
		}
		db.WaitDurable()
		total += time.Since(start)
		ran += len(batches)
	}
	return pipelineMeasured{
		epochs:  ran,
		tps:     float64(committed) / total.Seconds(),
		epochMS: total.Seconds() * 1000 / float64(ran),
	}, nil
}

// setupPipelineWorkload builds a loaded database plus a per-epoch batch
// generator for one of the three swept workloads.
func (s Scale) setupPipelineWorkload(workload string, pipeline bool, seed int64) (*nvcaracal.DB, func(int) []*nvcaracal.Txn, error) {
	z := sizing{mode: nvcaracal.ModeNVCaracal, pipeline: pipeline}
	switch workload {
	case "kv":
		return s.setupPipelineKV(z, seed)
	case "ycsb":
		// Medium contention (4 hot ops) — the tentpole's acceptance workload.
		setup, err := s.setupYCSBNVC(s.YCSBRows, 4, false, false, z)
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		return setup.db, func(int) []*nvcaracal.Txn { return setup.w.GenBatch(rng, s.EpochTxns) }, nil
	case "smallbank":
		// Low contention, the mode where throughput is commit-bound.
		setup, err := s.setupSmallBankNVC(s.SBCustomers, s.SBCustomers/s.SBHotLowDiv, z)
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		return setup.db, func(int) []*nvcaracal.Txn { return setup.w.GenBatch(rng, s.EpochTxns) }, nil
	default:
		return nil, nil, fmt.Errorf("unknown pipeline workload %q", workload)
	}
}

// setupPipelineKV loads an update-heavy key-value workload: 160-byte
// pooled values over a fixed row set, three quarters overwrites and one
// quarter insert-new/delete-old churn. It reuses the crashcheck kit's
// transaction types, so the same registry serves recovery.
func (s Scale) setupPipelineKV(z sizing, seed int64) (*nvcaracal.DB, func(int) []*nvcaracal.Txn, error) {
	const valBytes = 160
	rows := s.YCSBRows / 2
	z.registry = kit.Registry()
	// The loader pushes 4*EpochTxns-transaction insert batches with full
	// values; budget the WAL for those, not the default 256 B/txn.
	z.logPerTxn = 2048
	z.rows = int64(rows) + int64(s.EpochTxns)
	z.rowSize = 256
	z.valueSize = alignRow(valBytes)
	z.values = int64(rows) + int64(s.EpochTxns)
	fcfg := s.nvcConfig(z)
	db, err := nvcaracal.Open(fcfg)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	val := func() []byte {
		v := make([]byte, valBytes)
		rng.Read(v)
		return v
	}
	// Load the base rows in epoch-sized batches.
	var batch []*nvcaracal.Txn
	for k := 0; k < rows; k++ {
		batch = append(batch, kit.MkInsert(uint64(k), val()))
		if len(batch) == s.EpochTxns*4 || k == rows-1 {
			if _, err := db.RunEpoch(batch); err != nil {
				return nil, nil, err
			}
			batch = nil
		}
	}
	db.WaitDurable()
	insBase := uint64(1) << 40 // churn keys, far above the base rows
	gen := func(e int) []*nvcaracal.Txn {
		out := make([]*nvcaracal.Txn, 0, s.EpochTxns)
		for i := 0; i < s.EpochTxns; i++ {
			switch {
			case i%4 != 0:
				out = append(out, kit.MkSet(uint64(rng.Intn(rows)), val()))
			default:
				k := insBase + uint64(e*s.EpochTxns+i)
				out = append(out, kit.MkInsert(k, val()))
				if e > 0 {
					out = append(out, kit.MkDelete(insBase+uint64((e-1)*s.EpochTxns+i)))
				}
			}
		}
		return out
	}
	return db, gen, nil
}
