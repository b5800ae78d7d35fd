package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"nvcaracal"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/workload/smallbank"
	"nvcaracal/internal/workload/tpcc"
	"nvcaracal/internal/workload/ycsb"
	"nvcaracal/internal/zen"
)

func (s Scale) cores() int {
	if s.Cores > 0 {
		return s.Cores
	}
	return runtime.GOMAXPROCS(0)
}

// alignRow rounds a row size up to the 64-byte line multiple the engine
// requires.
func alignRow(n int64) int64 { return (n + 63) / 64 * 64 }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// inlineRowSize returns the row size that inlines both versions of values
// up to valueSize (the "optimal row size" of Table 4).
func inlineRowSize(valueSize int64) int64 { return alignRow(64 + 2*valueSize) }

// nvcConfig builds a facade config sized for a workload.
type sizing struct {
	rows      int64 // expected live row count
	values    int64 // expected live non-inline value count (0 if all inline)
	rowSize   int64
	valueSize int64
	counters  int64
	mode      nvcaracal.StorageMode
	noCache   bool
	hotOnly   bool
	noMinorGC bool
	revert    bool
	pidx      bool // enable the persistent index journal (§7 extension)
	registry  *nvcaracal.Registry
	dram      bool // run the device at DRAM speed regardless of Scale
	obsv      *nvcaracal.Obs
	pipeline  bool // Pipeline: depth-1 epoch pipeline (background commit)
	// logPerTxn overrides the default 256-byte per-transaction WAL budget
	// for workloads whose inputs carry large values (the region is split in
	// two so consecutive epochs can be in flight; size for the biggest
	// single batch).
	logPerTxn int64
}

func (s Scale) nvcConfig(z sizing) nvcaracal.Config {
	cores := int64(s.cores())
	cfg := nvcaracal.Config{
		Cores:            int(cores),
		Mode:             z.mode,
		RowSize:          z.rowSize,
		ValueSize:        z.valueSize,
		RowsPerCore:      z.rows*2/cores + 4096,
		ValuesPerCore:    z.values*3/cores + 4096,
		Counters:         z.counters,
		CacheK:           20,
		DisableCache:     z.noCache,
		CacheHotOnly:     z.hotOnly,
		DisableMinorGC:   z.noMinorGC,
		RevertOnRecovery: z.revert,
		PersistIndex:     z.pidx,
		Registry:         z.registry,
		LogBytes:         int64(s.EpochTxns)*max64(z.logPerTxn, 256) + (1 << 20),
		Obs:              z.obsv,
		Pipeline:         z.pipeline,
	}
	if !z.dram && z.mode != nvcaracal.ModeAllDRAM {
		cfg.NVMMReadLatency = s.ReadLatency
		cfg.NVMMWriteLatency = s.WriteLatency
		cfg.NVMMFenceLatency = s.FenceLatency
	}
	return cfg
}

// loadNVC populates a database from loader batches.
func loadNVC(db *nvcaracal.DB, batches [][]*nvcaracal.Txn) error {
	for _, b := range batches {
		if _, err := db.RunEpoch(b); err != nil {
			return err
		}
	}
	return nil
}

// measured captures a timed run.
type measured struct {
	TPS       float64
	EpochLat  time.Duration // mean epoch latency
	Committed int
	Aborted   int
}

// minMeasure is the minimum accumulated measurement window: short epochs
// repeat until it is reached, keeping single-digit-millisecond workloads
// out of the timer noise floor.
const minMeasure = 400 * time.Millisecond

// runNVC times epochs of pre-generated batches. Generation is excluded
// from the measurement (it models the client side). After the planned
// epochs it keeps running until the measurement window is long enough to
// be stable.
func runNVC(db *nvcaracal.DB, gen func(epoch int) []*nvcaracal.Txn, epochs int) (measured, error) {
	return runNVCN(db, gen, epochs, 50)
}

// runNVCN is runNVC with an explicit cap on the measurement-window epoch
// multiplier; workloads whose datasets grow per epoch (TPC-C) use a small
// cap matched to their pool sizing.
func runNVCN(db *nvcaracal.DB, gen func(epoch int) []*nvcaracal.Txn, epochs, extraFactor int) (measured, error) {
	var m measured
	var total time.Duration
	ran := 0
	for e := 0; e < epochs || (total < minMeasure && ran < epochs*extraFactor); e++ {
		batch := gen(e)
		start := time.Now()
		res, err := db.RunEpoch(batch)
		if err != nil {
			return m, err
		}
		total += time.Since(start)
		m.Committed += res.Committed
		m.Aborted += res.Aborted
		ran++
	}
	if total > 0 {
		m.TPS = float64(m.Committed+m.Aborted) / total.Seconds()
	}
	m.EpochLat = total / time.Duration(ran)
	return m, nil
}

// runZen times totalTxns executed by `cores` workers, repeating rounds
// until the measurement window is long enough to be stable.
func runZen(db *zen.DB, run func(rng *rand.Rand) error, cores, totalTxns int, seed int64) (measured, error) {
	var total time.Duration
	executed := 0
	for round := 0; round == 0 || (total < minMeasure && round < 50); round++ {
		var wg sync.WaitGroup
		errCh := make(chan error, cores)
		start := time.Now()
		for w := 0; w < cores; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(round*1009+w)*7919))
				n := totalTxns / cores
				if w < totalTxns%cores {
					n++
				}
				for i := 0; i < n; i++ {
					if err := run(rng); err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		total += time.Since(start)
		executed += totalTxns
		select {
		case err := <-errCh:
			return measured{}, err
		default:
		}
	}
	s := db.Stats()
	return measured{
		TPS:       float64(executed) / total.Seconds(),
		Committed: int(s.Commits),
		Aborted:   int(s.Aborts),
	}, nil
}

// --- YCSB setups ---

type ycsbSetup struct {
	w   *ycsb.Workload
	db  *nvcaracal.DB
	cfg nvcaracal.Config
}

// setupYCSBNVC loads a YCSB instance on the deterministic engine.
// inlineRows selects the Table 4 "optimal" row size that inlines values;
// otherwise the paper-default 256-byte rows with a value pool are used.
func (s Scale) setupYCSBNVC(rows, hotOps int, smallrow, inlineRows bool, z sizing) (*ycsbSetup, error) {
	cfg := ycsb.DefaultConfig(rows)
	if smallrow {
		cfg = ycsb.SmallRowConfig(rows)
	}
	cfg.HotOps = hotOps
	w, err := ycsb.New(cfg)
	if err != nil {
		return nil, err
	}
	reg := nvcaracal.NewRegistry()
	w.Register(reg)
	z.registry = reg
	z.rows = int64(rows)
	z.valueSize = alignRow(int64(cfg.ValueSize))
	if inlineRows {
		z.rowSize = inlineRowSize(int64(cfg.ValueSize))
		z.values = 0
	} else {
		z.rowSize = 256
		if int64(cfg.ValueSize) > (256-64)/2 {
			z.values = int64(rows)
		}
	}
	fcfg := s.nvcConfig(z)
	db, err := nvcaracal.Open(fcfg)
	if err != nil {
		return nil, err
	}
	if err := loadNVC(db, w.LoadBatches(s.EpochTxns*4)); err != nil {
		return nil, err
	}
	return &ycsbSetup{w: w, db: db, cfg: fcfg}, nil
}

// setupYCSBZen loads the same dataset on Zen.
func (s Scale) setupYCSBZen(rows, hotOps int, smallrow bool) (*ycsb.Workload, *zen.DB, error) {
	cfg := ycsb.DefaultConfig(rows)
	if smallrow {
		cfg = ycsb.SmallRowConfig(rows)
	}
	cfg.HotOps = hotOps
	w, err := ycsb.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	zcfg := zen.Config{
		TupleSize:    32 + int64(cfg.ValueSize), // Table 4: 1024-ish for YCSB
		Capacity:     int64(rows) + int64(s.cores())*ycsb.OpsPerTxn*4 + 1024,
		CacheEntries: rows, // Table 4: cache entries = row count
	}
	dev := nvm.New(zcfg.DeviceSize(),
		nvm.WithLatency(s.ReadLatency, s.WriteLatency), nvm.WithFenceLatency(s.FenceLatency))
	zdb, err := zen.Open(dev, zcfg)
	if err != nil {
		return nil, nil, err
	}
	if err := w.LoadZen(zdb); err != nil {
		return nil, nil, err
	}
	return w, zdb, nil
}

// --- SmallBank setups ---

func (s Scale) smallbankConfig(customers, hotspot int) smallbank.Config {
	return smallbank.DefaultConfig(customers, hotspot)
}

type smallbankSetup struct {
	w   *smallbank.Workload
	db  *nvcaracal.DB
	cfg nvcaracal.Config
}

func (s Scale) setupSmallBankNVC(customers, hotspot int, z sizing) (*smallbankSetup, error) {
	w, err := smallbank.New(s.smallbankConfig(customers, hotspot))
	if err != nil {
		return nil, err
	}
	reg := nvcaracal.NewRegistry()
	w.Register(reg)
	z.registry = reg
	z.rows = int64(customers) * 3
	if z.rowSize == 0 {
		z.rowSize = 128 // Table 4: SmallBank persistent row size
	}
	z.valueSize = 64
	cfg := s.nvcConfig(z)
	db, err := nvcaracal.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := loadNVC(db, w.LoadBatches(s.EpochTxns*4)); err != nil {
		return nil, err
	}
	return &smallbankSetup{w: w, db: db, cfg: cfg}, nil
}

func (s Scale) setupSmallBankZen(customers, hotspot int) (*smallbank.Workload, *zen.DB, error) {
	w, err := smallbank.New(s.smallbankConfig(customers, hotspot))
	if err != nil {
		return nil, nil, err
	}
	zcfg := zen.Config{
		TupleSize:    64, // Table 4: 32-byte rows rounded to a line
		Capacity:     int64(customers)*3 + int64(s.cores())*16 + 1024,
		CacheEntries: customers / 3, // Table 4 ratio: fewer entries than rows
	}
	dev := nvm.New(zcfg.DeviceSize(),
		nvm.WithLatency(s.ReadLatency, s.WriteLatency), nvm.WithFenceLatency(s.FenceLatency))
	zdb, err := zen.Open(dev, zcfg)
	if err != nil {
		return nil, nil, err
	}
	if err := w.LoadZen(zdb); err != nil {
		return nil, nil, err
	}
	return w, zdb, nil
}

// --- TPC-C setup ---

func (s Scale) tpccConfig(warehouses int) tpcc.Config {
	cfg := tpcc.DefaultConfig(warehouses)
	// Keep the dataset proportionate at quick scale.
	if s.EpochTxns <= 2000 {
		cfg.CustomersPerDistrict = 60
		cfg.Items = 500
	}
	return cfg
}

type tpccSetup struct {
	w   *tpcc.Workload
	db  *nvcaracal.DB
	cfg nvcaracal.Config
}

func (s Scale) setupTPCC(warehouses int, z sizing) (*tpccSetup, error) {
	wcfg := s.tpccConfig(warehouses)
	w, err := tpcc.New(wcfg)
	if err != nil {
		return nil, err
	}
	reg := nvcaracal.NewRegistry()
	w.Register(reg)
	z.registry = reg
	z.counters = wcfg.RequiredCounters()
	z.revert = true
	base := int64(wcfg.Items + wcfg.Warehouses*(1+wcfg.Items) +
		wcfg.Warehouses*wcfg.Districts*(2+2*wcfg.CustomersPerDistrict))
	// NewOrder inserts + History grow per epoch; size for the measurement
	// measured epoch count (TPC-C runs a fixed window; see runTPCC).
	grown := int64(s.Epochs+4) * int64(s.EpochTxns) * 8
	z.rows = base + grown
	if z.rowSize == 0 {
		z.rowSize = 256
	}
	z.valueSize = 256
	cfg := s.nvcConfig(z)
	db, err := nvcaracal.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := loadNVC(db, w.LoadBatches(s.EpochTxns*4)); err != nil {
		return nil, err
	}
	return &tpccSetup{w: w, db: db, cfg: cfg}, nil
}

// --- common runner fragments ---

func (s Scale) runYCSBNVC(setup *ycsbSetup, seed int64) (measured, error) {
	rng := rand.New(rand.NewSource(seed))
	return runNVC(setup.db, func(int) []*nvcaracal.Txn {
		return setup.w.GenBatch(rng, s.EpochTxns)
	}, s.Epochs)
}

func (s Scale) runSmallBankNVC(setup *smallbankSetup, seed int64) (measured, error) {
	rng := rand.New(rand.NewSource(seed))
	return runNVC(setup.db, func(int) []*nvcaracal.Txn {
		return setup.w.GenBatch(rng, s.EpochTxns)
	}, s.Epochs)
}

func (s Scale) runTPCC(setup *tpccSetup, seed int64) (measured, error) {
	rng := rand.New(rand.NewSource(seed))
	return runNVCN(setup.db, func(int) []*nvcaracal.Txn {
		return setup.w.GenBatch(rng, setup.db, s.EpochTxns)
	}, s.Epochs, 1)
}

// contentionName maps YCSB hot-op counts to the paper's labels.
func contentionName(hotOps int) string {
	switch hotOps {
	case 0:
		return "low"
	case 4:
		return "med"
	default:
		return "high"
	}
}

// kTPS converts a measured run to the figure metric.
func kTPS(m measured) float64 { return m.TPS / 1000 }

// must wraps experiment-internal errors: the harness treats them as fatal
// misconfigurations.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}

// freeMem nudges the runtime between heavyweight experiment cells.
func freeMem() {
	runtime.GC()
}
