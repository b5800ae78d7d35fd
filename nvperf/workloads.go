package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"nvcaracal"
	"nvcaracal/internal/metrics"
	"nvcaracal/internal/workload/tpcc"
	"nvcaracal/internal/workload/ycsb"
)

// workload is one benchmark input: its engine sizing, loader, transaction
// source and output model.
type workload interface {
	config() nvcaracal.Config
	load(db *nvcaracal.DB) error
	warmupEpochs() int
	// batch returns the next hand-batched epoch (one transaction in the
	// open loop).
	batch(db *nvcaracal.DB, rng *rand.Rand) []*nvcaracal.Txn
	warmupBatch(db *nvcaracal.DB, rng *rand.Rand) []*nvcaracal.Txn
	// crashBatch returns the epoch that is crashed and recovered; the same
	// seed and database state give the same inputs.
	crashBatch(db *nvcaracal.DB, seed int64) []*nvcaracal.Txn
	// recovery returns how many times the crashed device is recovered,
	// and the GOMAXPROCS the recoveries run under (0 leaves it as it is).
	recovery() (rounds, procs int)
	// offeredRate is the open loop's txn/s; 0 means hand-batched.
	offeredRate() int
	// timedTxns is the fixed work of the timed phase; 0 means it runs for
	// --seconds instead.
	timedTxns() int64
	newModel() model
	checkVersions(d metrics.Snapshot, committed int64) error
	// sampleKey draws a key id from the workload's key distribution over
	// rows keys, and valueSize is its largest row value, for the traced
	// index and arena benchmarks.
	sampleKey(rng *rand.Rand, rows int) uint64
	valueSize() int
}

// model is the benchmark's own account of what the database must hold.
type model interface {
	// apply records committed transactions in serial order.
	apply(txns []*nvcaracal.Txn)
	check(db *nvcaracal.DB) error
}

// newWorkload returns the named workload, sized for a timed phase of
// seconds.
func newWorkload(name string, seconds float64) (workload, error) {
	switch name {
	case "ycsb-cold":
		// Every op cold; 40-txn epochs touch at most 8000 rows over the
		// 20-epoch cache horizon, a quarter of the 32768 rows.
		return newYCSB(ycsb.Config{Rows: 32768, ValueSize: 1000, UpdateBytes: 100, HotRows: 256, HotOps: 0}, 40, 0)
	case "ycsb-hot-open":
		// 7 of 10 ops on the 256-row hot set of a 4096-row table, offered
		// at a fixed rate through the Submitter.
		return newYCSB(ycsb.Config{Rows: 4096, ValueSize: 1000, UpdateBytes: 100, HotRows: 256, HotOps: 7}, 1, 2000)
	case "tpcc":
		return newTPCC(tpcc.DefaultConfig(2), 250, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want ycsb-cold, ycsb-hot-open or tpcc)", name)
}

// --- YCSB ---

type ycsbWorkload struct {
	w     *ycsb.Workload
	cfg   ycsb.Config
	epoch int // transactions per hand-batched epoch
	rate  int // offered txn/s of the open loop; 0 = hand-batched
}

func newYCSB(cfg ycsb.Config, epoch, rate int) (*ycsbWorkload, error) {
	w, err := ycsb.New(cfg)
	if err != nil {
		return nil, err
	}
	return &ycsbWorkload{w: w, cfg: cfg, epoch: epoch, rate: rate}, nil
}

func (y *ycsbWorkload) config() nvcaracal.Config {
	c := engineConfig()
	y.w.Register(c.Registry)
	rows := int64(y.cfg.Rows)
	c.RowsPerCore = rows + 4096
	// A row holds at most two persistent versions, so the two pools
	// together hold every row's two versions. A freed slot goes back to
	// the freeing core, though, and under the open loop's small epochs
	// one core allocates most slots while the other frees them: its pool
	// drains over the run (see README), so the open loop gets six times
	// the rows per core.
	c.ValuesPerCore = rows + 4096
	if y.rate > 0 {
		c.ValuesPerCore = 6*rows + 4096
	}
	return c
}

func (y *ycsbWorkload) load(db *nvcaracal.DB) error {
	for _, b := range y.w.LoadBatches(2000) {
		if _, err := db.RunEpoch(b); err != nil {
			return err
		}
	}
	return nil
}

// warmupEpochs covers the 20-epoch cache horizon three times over.
func (y *ycsbWorkload) warmupEpochs() int { return 60 }

func (y *ycsbWorkload) batch(_ *nvcaracal.DB, rng *rand.Rand) []*nvcaracal.Txn {
	return y.w.GenBatch(rng, y.epoch)
}

// warmupBatch is the hand-batched epoch of the warm-up: the open loop
// warms up with epochs of the size its Submitter forms at the offered
// rate.
func (y *ycsbWorkload) warmupBatch(db *nvcaracal.DB, rng *rand.Rand) []*nvcaracal.Txn {
	if y.rate > 0 {
		return y.w.GenBatch(rng, 8)
	}
	return y.batch(db, rng)
}

func (y *ycsbWorkload) crashBatch(_ *nvcaracal.DB, seed int64) []*nvcaracal.Txn {
	n := y.epoch
	if y.rate > 0 {
		n = 64
	}
	return y.w.GenBatch(rand.New(rand.NewSource(seed^0x5eed)), n)
}

// recovery: ycsb-cold recovers 32768 rows in about 0.06 s on both
// threads. The open loop's 4096 rows take 0.012–0.02 s, and there the
// per-core halves of the scan ran in parallel in some runs and not in
// others, so it times 41 recoveries on one thread.
func (y *ycsbWorkload) recovery() (rounds, procs int) {
	if y.rate > 0 {
		return 41, 1
	}
	return 9, 0
}

func (y *ycsbWorkload) offeredRate() int { return y.rate }
func (y *ycsbWorkload) timedTxns() int64 { return 0 }
func (y *ycsbWorkload) valueSize() int   { return y.cfg.ValueSize }

// sampleKey draws HotOps of every ten keys from the hot set, the rest from
// the cold range, as the generator does.
func (y *ycsbWorkload) sampleKey(rng *rand.Rand, rows int) uint64 {
	if rng.Intn(ycsb.OpsPerTxn) < y.cfg.HotOps {
		return uint64(rng.Intn(y.cfg.HotRows))
	}
	return uint64(y.cfg.HotRows + rng.Intn(rows-y.cfg.HotRows))
}
func (y *ycsbWorkload) newModel() model { return newYCSBModel(y.cfg) }

// checkVersions: every YCSB transaction writes ten rows, and each write is
// one version, transient or persistent.
func (y *ycsbWorkload) checkVersions(d metrics.Snapshot, committed int64) error {
	got := d.TransientVersions + d.PersistentVersions
	return wantEq("transient+persistent versions", got, ycsb.OpsPerTxn*committed)
}

// ycsbModel holds, per key, the patch of the last committed write.
type ycsbModel struct {
	cfg     ycsb.Config
	patch   []uint64
	written []bool
}

func newYCSBModel(cfg ycsb.Config) *ycsbModel {
	return &ycsbModel{cfg: cfg, patch: make([]uint64, cfg.Rows), written: make([]bool, cfg.Rows)}
}

// apply decodes each transaction's logged input (ten keys, then the write
// seed) and records the patch its i-th write stores: seed+i.
func (m *ycsbModel) apply(txns []*nvcaracal.Txn) {
	for _, t := range txns {
		if t.TypeID != ycsb.TxnType {
			continue
		}
		seed := binary.LittleEndian.Uint64(t.Input[8*ycsb.OpsPerTxn:])
		for i := 0; i < ycsb.OpsPerTxn; i++ {
			k := binary.LittleEndian.Uint64(t.Input[8*i:])
			m.patch[k] = seed + uint64(i)
			m.written[k] = true
		}
	}
}

// expected is the loader's initial row with the first UpdateBytes
// overwritten by the last write's patch.
func (m *ycsbModel) expected(k uint64) []byte {
	v := make([]byte, m.cfg.ValueSize)
	for i := 0; i+8 <= len(v); i += 8 {
		binary.LittleEndian.PutUint64(v[i:], k^uint64(i))
	}
	if m.written[k] {
		for j := 0; j+8 <= m.cfg.UpdateBytes; j += 8 {
			binary.LittleEndian.PutUint64(v[j:], m.patch[k]^uint64(j))
		}
	}
	return v
}

func (m *ycsbModel) check(db *nvcaracal.DB) error {
	for k := uint64(0); k < uint64(m.cfg.Rows); k++ {
		got, ok := db.Get(ycsb.Table, k)
		if !ok {
			return fmt.Errorf("ycsb key %d missing", k)
		}
		if want := m.expected(k); !bytes.Equal(got, want) {
			return fmt.Errorf("ycsb key %d differs from the model", k)
		}
	}
	return nil
}

// --- TPC-C ---

type tpccWorkload struct {
	w     *tpcc.Workload
	cfg   tpcc.Config
	epoch int
	txns  int64 // the timed phase's transactions
}

// tpccRate is the nominal txn/s that sizes TPC-C's timed phase. TPC-C
// grows by about six rows per transaction and its row pools are sized up
// front, so its timed phase is fixed work, whole epochs of tpccRate ×
// --seconds transactions, rather than a time: the dataset and the memory
// figures then do not depend on how fast a run was.
const tpccRate = 8000

func newTPCC(cfg tpcc.Config, epoch int, seconds float64) (*tpccWorkload, error) {
	w, err := tpcc.New(cfg)
	if err != nil {
		return nil, err
	}
	epochs := max(int64(tpccRate*seconds)/int64(epoch), 1)
	return &tpccWorkload{w: w, cfg: cfg, epoch: epoch, txns: epochs * int64(epoch)}, nil
}

func (p *tpccWorkload) config() nvcaracal.Config {
	c := engineConfig()
	p.w.Register(c.Registry)
	c.Counters = p.cfg.RequiredCounters()
	c.RevertOnRecovery = true
	base := int64(p.cfg.Items + p.cfg.Warehouses*(1+p.cfg.Items) + p.cfg.Warehouses*p.cfg.Districts*(2+2*p.cfg.CustomersPerDistrict))
	txns := p.txns + int64((p.warmupEpochs()+2)*p.epoch)
	// Each core inserts about half of the rows; 0.6 leaves room for skew.
	c.RowsPerCore = base + txns*6*6/10 + 8192
	c.ValuesPerCore = 8192
	return c
}

func (p *tpccWorkload) load(db *nvcaracal.DB) error {
	for _, b := range p.w.LoadBatches(4000) {
		if _, err := db.RunEpoch(b); err != nil {
			return err
		}
	}
	return nil
}

func (p *tpccWorkload) warmupEpochs() int { return 24 }

func (p *tpccWorkload) batch(db *nvcaracal.DB, rng *rand.Rand) []*nvcaracal.Txn {
	return p.w.GenBatch(rng, db, p.epoch)
}

func (p *tpccWorkload) warmupBatch(db *nvcaracal.DB, rng *rand.Rand) []*nvcaracal.Txn {
	return p.batch(db, rng)
}

func (p *tpccWorkload) crashBatch(db *nvcaracal.DB, seed int64) []*nvcaracal.Txn {
	return p.w.GenBatch(rand.New(rand.NewSource(seed^0x5eed)), db, p.epoch)
}

// recovery: a TPC-C recovery takes about half a second on both threads.
func (p *tpccWorkload) recovery() (rounds, procs int) { return 5, 0 }

func (p *tpccWorkload) offeredRate() int { return 0 }
func (p *tpccWorkload) timedTxns() int64 { return p.txns }
func (p *tpccWorkload) newModel() model  { return &tpccModel{cfg: p.cfg} }

// sampleKey draws keys uniformly; valueSize is the order line's five
// int64 fields, TPC-C's largest row.
func (p *tpccWorkload) sampleKey(rng *rand.Rand, rows int) uint64 { return uint64(rng.Intn(rows)) }
func (p *tpccWorkload) valueSize() int                            { return 40 }

// checkVersions: TPC-C transactions write a varying number of rows, so
// the version count has no closed form; the row checks cover its state.
func (p *tpccWorkload) checkVersions(metrics.Snapshot, int64) error { return nil }

// TPC-C key packing and value layout, as the benchmark reads them.
func tDKey(w, d int) uint64                    { return uint64(w)*100 + uint64(d) }
func tOKey(w, d int, o uint64) uint64          { return tDKey(w, d)*10_000_000 + o }
func tOLKey(w, d int, o uint64, ol int) uint64 { return tOKey(w, d, o)*16 + uint64(ol) }
func i64(b []byte, i int) int64                { return int64(binary.LittleEndian.Uint64(b[i*8:])) }

// tpccModel holds the sum of the amounts of committed Payment inputs.
type tpccModel struct {
	cfg      tpcc.Config
	payments int64
}

// apply decodes each Payment input (W, D, C as uint32, then the amount).
// Payments never abort.
func (m *tpccModel) apply(txns []*nvcaracal.Txn) {
	for _, t := range txns {
		if t.TypeID == tpcc.TxnPayment {
			m.payments += int64(binary.LittleEndian.Uint64(t.Input[12:]))
		}
	}
}

func (m *tpccModel) check(db *nvcaracal.DB) error {
	var total int64
	for w := 1; w <= m.cfg.Warehouses; w++ {
		wv, ok := db.Get(tpcc.TableWarehouse, uint64(w))
		if !ok {
			return fmt.Errorf("warehouse %d missing", w)
		}
		var dsum int64
		for d := 1; d <= m.cfg.Districts; d++ {
			dv, ok := db.Get(tpcc.TableDistrict, tDKey(w, d))
			if !ok {
				return fmt.Errorf("district %d/%d missing", w, d)
			}
			dsum += i64(dv, 0)
			if err := m.checkOrders(db, w, d); err != nil {
				return err
			}
		}
		if i64(wv, 0) != dsum {
			return fmt.Errorf("warehouse %d: W_YTD %d != sum of D_YTD %d", w, i64(wv, 0), dsum)
		}
		total += i64(wv, 0)
	}
	if total != m.payments {
		return fmt.Errorf("sum of W_YTD %d != sum of committed payment amounts %d", total, m.payments)
	}
	return nil
}

// checkOrders walks every order id issued in one district: orders below
// the district's delivery pointer are delivered (carrier set, no NewOrder
// row), the rest undelivered (no carrier, a NewOrder row), and each order
// has exactly O_OL_CNT order lines. Ids without an order were burned by a
// rolled-back NewOrder and must have no rows at all.
func (m *tpccModel) checkOrders(db *nvcaracal.DB, w, d int) error {
	nv, ok := db.Get(tpcc.TableDistDeliv, tDKey(w, d))
	if !ok {
		return fmt.Errorf("district %d/%d delivery pointer missing", w, d)
	}
	next := uint64(i64(nv, 0))
	issued := db.CounterGet((w-1)*m.cfg.Districts + (d - 1))
	for o := uint64(1); o <= issued+1; o++ {
		ok := tOKey(w, d, o)
		ov, found := db.Get(tpcc.TableOrder, ok)
		_, hasNO := db.Get(tpcc.TableNewOrder, ok)
		if !found {
			if hasNO {
				return fmt.Errorf("order %d/%d/%d: NewOrder row without an order", w, d, o)
			}
			if _, ol := db.Get(tpcc.TableOrderLine, tOLKey(w, d, o, 1)); ol {
				return fmt.Errorf("order %d/%d/%d: order lines without an order", w, d, o)
			}
			continue
		}
		if o > issued {
			return fmt.Errorf("order %d/%d/%d exists beyond the issued id %d", w, d, o, issued)
		}
		delivered := o < next
		carrier := i64(ov, 2)
		if delivered && (hasNO || carrier == 0) {
			return fmt.Errorf("delivered order %d/%d/%d: NewOrder row %v, carrier %d", w, d, o, hasNO, carrier)
		}
		if !delivered && (!hasNO || carrier != 0) {
			return fmt.Errorf("undelivered order %d/%d/%d: NewOrder row %v, carrier %d", w, d, o, hasNO, carrier)
		}
		cnt := int(i64(ov, 1))
		for ol := 1; ol <= cnt+1 && ol < 16; ol++ {
			_, there := db.Get(tpcc.TableOrderLine, tOLKey(w, d, o, ol))
			if there != (ol <= cnt) {
				return fmt.Errorf("order %d/%d/%d: O_OL_CNT %d but order line %d present=%v", w, d, o, cnt, ol, there)
			}
		}
	}
	return nil
}
