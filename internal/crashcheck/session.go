package crashcheck

import (
	"fmt"
	"math/rand"

	"nvcaracal/internal/core"
	"nvcaracal/internal/crashcheck/kit"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/workload/smallbank"
	"nvcaracal/internal/workload/tpcc"
	"nvcaracal/internal/workload/ycsb"
)

// kvInsBase is the first key used by generated KV inserts; base rows live
// in [0, Rows) and Validate caps Rows at 1<<20, so the ranges never meet.
const kvInsBase = uint64(1) << 20

// loadBatchSize bounds the initial-load epochs for every workload.
const loadBatchSize = 512

// session turns a Spec into a runnable engine configuration plus a
// deterministic stream of epoch batches. Batches are regenerated from the
// seed on every call — core.Txn objects carry per-run state and must not
// be submitted twice — so the oracle run and every checker worker observe
// identical epochs.
type session struct {
	spec Spec
	opts core.Options
	// loadEpochs is how many engine epochs the initial load consumes; the
	// probe epoch is engine epoch loadEpochs+WarmEpochs+1.
	loadEpochs int

	y  *ycsb.Workload
	sb *smallbank.Workload
	tp *tpcc.Workload
}

func newSession(spec Spec) (*session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &session{spec: spec}
	var err error
	switch spec.Workload {
	case "kv":
		err = s.initKV()
	case "ycsb":
		err = s.initYCSB()
	case "smallbank":
		err = s.initSmallBank()
	case "tpcc":
		err = s.initTPCC()
	}
	if err != nil {
		return nil, err
	}
	s.opts.MinorGCEnabled = spec.MinorGC
	s.opts.PersistIndex = spec.PersistIndex
	s.opts.Pipeline = spec.Pipeline
	if err := s.opts.Layout.Finalize(); err != nil {
		return nil, fmt.Errorf("crashcheck: layout: %w", err)
	}
	s.loadEpochs = (s.datasetRows() + loadBatchSize - 1) / loadBatchSize
	return s, nil
}

// datasetRows is how many load transactions the workload's initial load
// issues (the load runs loadBatchSize of them per epoch).
func (s *session) datasetRows() int {
	switch s.spec.Workload {
	case "kv":
		return s.spec.Rows
	case "ycsb":
		return s.spec.Rows
	case "smallbank":
		return 2 * s.spec.Rows // checking + savings per customer
	default:
		n := 0
		for _, b := range s.tp.LoadBatches(loadBatchSize) {
			n += len(b)
		}
		return n
	}
}

// pow2At rounds need up to a power of two no smaller than min.
func pow2At(min, need int64) int64 {
	s := min
	for s < need {
		s <<= 1
	}
	return s
}

// baseLayout fills the fields every workload shares; callers set the
// row/value geometry. Pools are sized at the spec's full requirement per
// core rather than divided by cores: allocation follows the executing
// core, which can be arbitrarily skewed.
func baseLayout(spec Spec, rowSize, rowsPerCore, valueSize, valuesPerCore, counters int64) pmem.Layout {
	lay := pmem.Layout{
		Cores:          spec.Cores,
		RowSize:        rowSize,
		RowsPerCore:    rowsPerCore,
		ValueSize:      valueSize,
		ValuesPerCore:  valuesPerCore,
		RingCap:        4 * (rowsPerCore + valuesPerCore),
		LogBytes:       pow2At(1<<16, int64(spec.TxnsPerEpoch)*int64(spec.ValueBytes+128)*4),
		Counters:       counters,
		ScratchPerCore: 1 << 16,
	}
	if spec.PersistIndex {
		lay.IndexLogBytes = 1 << 16
	}
	return lay
}

func (s *session) initKV() error {
	spec := s.spec
	// Base rows plus every insert the warm and probe epochs can issue.
	rows := int64(spec.Rows + (spec.WarmEpochs+2)*spec.TxnsPerEpoch + 64)
	// RMW and transfer append one byte per touch, so values grow past
	// ValueBytes over the run; size the slot for the worst case.
	growth := int64((spec.WarmEpochs + 2) * spec.TxnsPerEpoch)
	slot := pow2At(256, int64(spec.ValueBytes)+growth+16)
	s.opts = core.Options{
		Cores:        spec.Cores,
		Mode:         core.ModeNVCaracal,
		Layout:       baseLayout(spec, 256, rows, slot, rows*3, 8),
		CacheEnabled: true,
		CacheK:       4,
		CacheOnRead:  true,
		Registry:     kit.Registry(),
		AriaRegistry: kit.AriaRegistry(),
	}
	return nil
}

func (s *session) initYCSB() error {
	spec := s.spec
	vb := spec.ValueBytes
	if vb == 0 {
		vb = 120
	}
	cfg := ycsb.Config{
		Rows:      spec.Rows,
		ValueSize: vb,
		UpdateBytes: func() int {
			if vb < 100 {
				return vb
			}
			return 100
		}(),
		HotRows: max(4, spec.Rows/8),
		HotOps:  4,
	}
	w, err := ycsb.New(cfg)
	if err != nil {
		return err
	}
	s.y = w
	reg := core.NewRegistry()
	w.Register(reg)
	rows := int64(spec.Rows + 64)
	s.opts = core.Options{
		Cores:        spec.Cores,
		Mode:         core.ModeNVCaracal,
		Layout:       baseLayout(spec, 256, rows, pow2At(256, int64(vb)+8), rows*3, 4),
		CacheEnabled: true,
		CacheK:       4,
		CacheOnRead:  true,
		Registry:     reg,
	}
	return nil
}

func (s *session) initSmallBank() error {
	spec := s.spec
	w, err := smallbank.New(smallbank.DefaultConfig(spec.Rows, max(2, spec.Rows/8)))
	if err != nil {
		return err
	}
	s.sb = w
	reg := core.NewRegistry()
	w.Register(reg)
	rows := int64(spec.Rows)*3 + 64
	s.opts = core.Options{
		Cores:        spec.Cores,
		Mode:         core.ModeNVCaracal,
		Layout:       baseLayout(spec, 128, rows, 256, rows, 4),
		CacheEnabled: true,
		CacheK:       4,
		CacheOnRead:  true,
		Registry:     reg,
	}
	return nil
}

func (s *session) initTPCC() error {
	spec := s.spec
	cfg := tpcc.Config{
		Warehouses:           spec.Rows,
		Districts:            2,
		CustomersPerDistrict: 20,
		Items:                50,
	}
	w, err := tpcc.New(cfg)
	if err != nil {
		return err
	}
	s.tp = w
	reg := core.NewRegistry()
	w.Register(reg)
	// Orders, order lines, and history rows accumulate every epoch.
	base := int64(cfg.Warehouses*(cfg.Districts*(1+cfg.CustomersPerDistrict)+cfg.Items) + 8)
	grow := int64((spec.WarmEpochs + 2) * spec.TxnsPerEpoch * 16)
	rows := base + grow + 256
	s.opts = core.Options{
		Cores:            spec.Cores,
		Mode:             core.ModeNVCaracal,
		Layout:           baseLayout(spec, 192, rows, 256, rows, cfg.RequiredCounters()),
		CacheEnabled:     true,
		CacheK:           4,
		CacheOnRead:      true,
		MinorGCEnabled:   true,
		RevertOnRecovery: true,
		Registry:         reg,
	}
	return nil
}

// newDevice creates a fresh device sized for the session, with chaos
// eviction armed when the spec asks for it.
func (s *session) newDevice() *nvm.Device {
	var devOpts []nvm.Option
	if s.spec.ChaosDenom > 0 {
		devOpts = append(devOpts, nvm.WithChaosEviction(s.spec.ChaosDenom, s.spec.Seed))
	}
	return nvm.New(s.opts.Layout.TotalBytes(), devOpts...)
}

// rng returns the deterministic stream for one logical epoch (1-based;
// the probe epoch is WarmEpochs+1). Epoch streams are independent so a
// worker can regenerate the probe batch without replaying warm epochs.
func (s *session) rng(logicalEpoch int) *rand.Rand {
	return rand.New(rand.NewSource(s.spec.Seed*1_000_003 + int64(logicalEpoch)*2_654_435_761))
}

func fillValue(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// loadBatches regenerates the initial-load epochs.
func (s *session) loadBatches() [][]*core.Txn {
	switch s.spec.Workload {
	case "kv":
		rng := s.rng(0)
		var batches [][]*core.Txn
		var cur []*core.Txn
		for k := 0; k < s.spec.Rows; k++ {
			n := 8
			if s.spec.ValueBytes > 0 && k%3 == 0 {
				n = s.spec.ValueBytes
			}
			cur = append(cur, kit.MkInsert(uint64(k), fillValue(rng, n)))
			if len(cur) == loadBatchSize {
				batches = append(batches, cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			batches = append(batches, cur)
		}
		return batches
	case "ycsb":
		return s.y.LoadBatches(loadBatchSize)
	case "smallbank":
		return s.sb.LoadBatches(loadBatchSize)
	default:
		return s.tp.LoadBatches(loadBatchSize)
	}
}

// kvInsKey is the key inserted at position i of logical epoch le.
func (s *session) kvInsKey(le, i int) uint64 {
	return kvInsBase + uint64(le*s.spec.TxnsPerEpoch+i)
}

// batch generates one logical epoch for the Caracal-style flavours. The
// KV mix is positional so structural pairings hold by construction: slot
// i%8==5 inserts a fresh key every epoch and slot i%8==6 deletes exactly
// the key slot 5 inserted one epoch earlier — never double-deleted, never
// colliding with the base keys the RMW/set/transfer slots touch. tpcc
// reads committed counters from db (identical between the oracle and a
// recovered worker), the rest ignore it.
func (s *session) batch(db *core.DB, le int) []*core.Txn {
	rng := s.rng(le)
	n := s.spec.TxnsPerEpoch
	switch s.spec.Workload {
	case "ycsb":
		return s.y.GenBatch(rng, n)
	case "smallbank":
		return s.sb.GenBatch(rng, n)
	case "tpcc":
		return s.tp.GenBatch(rng, db, n)
	}
	out := make([]*core.Txn, 0, n)
	for i := 0; i < n; i++ {
		hot := uint64(rng.Intn(max(1, s.spec.Rows/4)))
		any := uint64(rng.Intn(s.spec.Rows))
		switch i % 8 {
		case 0, 1, 2:
			out = append(out, kit.MkRMW(hot, byte('a'+rng.Intn(26))))
		case 3:
			out = append(out, kit.MkSet(any, fillValue(rng, max(8, s.spec.ValueBytes))))
		case 4:
			out = append(out, kit.MkSet(any, fillValue(rng, 8)))
		case 5:
			out = append(out, kit.MkInsert(s.kvInsKey(le, i), fillValue(rng, max(8, s.spec.ValueBytes))))
		case 6:
			if le >= 2 {
				out = append(out, kit.MkDelete(s.kvInsKey(le-1, i-1)))
			} else {
				out = append(out, kit.MkRMW(any, byte('0'+rng.Intn(10))))
			}
		default:
			if rng.Intn(2) == 0 {
				to := uint64(rng.Intn(s.spec.Rows))
				if to == any { // a transfer must touch two distinct rows
					to = (to + 1) % uint64(s.spec.Rows)
				}
				out = append(out, kit.MkTransfer(any, to))
			} else {
				out = append(out, kit.MkAbortSet(any, fillValue(rng, 8)))
			}
		}
	}
	return out
}

// ariaBatch is batch for the Aria flavour (kv only).
func (s *session) ariaBatch(le int) []*core.AriaTxn {
	rng := s.rng(le)
	n := s.spec.TxnsPerEpoch
	out := make([]*core.AriaTxn, 0, n)
	for i := 0; i < n; i++ {
		hot := uint64(rng.Intn(max(1, s.spec.Rows/4)))
		any := uint64(rng.Intn(s.spec.Rows))
		switch i % 8 {
		case 0, 1, 2:
			out = append(out, kit.AriaRMW(hot, byte('a'+rng.Intn(26))))
		case 3:
			out = append(out, kit.AriaSet(any, fillValue(rng, max(8, s.spec.ValueBytes))))
		case 4:
			out = append(out, kit.AriaSet(any, fillValue(rng, 8)))
		case 5:
			out = append(out, kit.AriaSet(s.kvInsKey(le, i), fillValue(rng, max(8, s.spec.ValueBytes))))
		case 6:
			if le >= 2 {
				out = append(out, kit.AriaDelete(s.kvInsKey(le-1, i-1)))
			} else {
				out = append(out, kit.AriaRMW(any, byte('0'+rng.Intn(10))))
			}
		default:
			to := uint64(rng.Intn(s.spec.Rows))
			if to == any {
				to = (to + 1) % uint64(s.spec.Rows)
			}
			out = append(out, kit.AriaTransfer(any, to))
		}
	}
	return out
}

// runEpoch runs one logical epoch in the spec's flavour. It drains the
// background commit before returning so callers can snapshot the device or
// digest the state immediately (a no-op with Pipeline off).
func (s *session) runEpoch(db *core.DB, le int) error {
	if s.spec.Aria {
		if _, err := db.RunEpochAria(s.ariaBatch(le)); err != nil {
			return err
		}
		db.WaitDurable()
		return nil
	}
	if _, err := db.RunEpoch(s.batch(db, le)); err != nil {
		return err
	}
	db.WaitDurable()
	return nil
}

// runEpochUntilCrash is runEpoch with injected-crash conversion.
func (s *session) runEpochUntilCrash(db *core.DB, le int) (bool, error) {
	if s.spec.Aria {
		return kit.RunAriaUntilCrash(db, s.ariaBatch(le))
	}
	return kit.RunUntilCrash(db, s.batch(db, le))
}

// windowEpochs is how many engine epochs the probe window spans: one
// normally, two under Pipeline, where the point of the sweep is the overlap
// between epoch P's background commit and epoch P+1's front.
func (s *session) windowEpochs() int {
	if s.spec.Pipeline {
		return 2
	}
	return 1
}

// probeWindow runs the probe window crash-free starting at logical epoch
// le. Under Pipeline it submits both epochs back to back — epoch le's
// checkpoint overlaps epoch le+1's front — and drains only at the end;
// otherwise it is runEpoch.
func (s *session) probeWindow(db *core.DB, le int) error {
	if !s.spec.Pipeline {
		return s.runEpoch(db, le)
	}
	if err := s.submitEpoch(db, le); err != nil {
		return err
	}
	if err := s.submitEpoch(db, le+1); err != nil {
		return err
	}
	db.WaitDurable()
	return nil
}

// submitEpoch runs one engine epoch without draining the commit pipeline.
func (s *session) submitEpoch(db *core.DB, le int) error {
	if s.spec.Aria {
		_, err := db.RunEpochAria(s.ariaBatch(le))
		return err
	}
	_, err := db.RunEpoch(s.batch(db, le))
	return err
}

// digest summarizes db's committed state for oracle comparison. Under
// Pipeline it excludes per-pool allocation totals: whether an overlapped
// allocation adopts a freed ring slot or bumps depends on how the
// committer's checkpoint fence interleaves with the front, so the totals
// are not replay-deterministic even though the logical state is (allocator
// accounting is still covered by CheckInvariants on every recovered
// state). Elsewhere the full digest keeps pinning the totals.
func (s *session) digest(db *core.DB) uint64 {
	if s.spec.Pipeline {
		return db.LogicalDigest()
	}
	return db.StateDigest()
}

// probeWindowUntilCrash is probeWindow with injected-crash conversion.
// Under Pipeline the fail point fires on exactly one goroutine — the front
// or the background committer — and the survivor keeps issuing device
// accesses; the window therefore quiesces the engine before returning, so
// the caller may crash the device (nvm.Device.Crash requires no in-flight
// accesses). The drained survivor's flushes land before the cut, the same
// state a chaos eviction could reach, so the checks stay sound.
func (s *session) probeWindowUntilCrash(db *core.DB, le int) (bool, error) {
	if !s.spec.Pipeline {
		return s.runEpochUntilCrash(db, le)
	}
	fired, err := kit.RunFuncUntilCrash(func() error { return s.probeWindow(db, le) })
	kit.Quiesce(db)
	return fired, err
}
