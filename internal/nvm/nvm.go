// Package nvm simulates a byte-addressable non-volatile main memory (NVMM)
// device such as Intel Optane Persistent Memory.
//
// The simulation tracks durability at CPU cache-line (64 byte) granularity,
// which is the unit at which real hardware moves data between the CPU caches
// and the persistence domain:
//
//   - Stores (WriteAt and friends) update the "live" image, the bytes that
//     loads observe, and mark the touched lines dirty.
//   - Flush (CLWB/CLFLUSHOPT) snapshots the current content of a line into a
//     staging area. The snapshot is not yet durable.
//   - Fence (SFENCE) commits all staged snapshots to the durable image.
//
// Crash discards the live image and rebuilds it from the durable image,
// optionally letting some un-fenced lines survive (CrashRandom) the way a
// real cache eviction can write back a dirty line at any time. Code that is
// crash-consistent on this model — in particular under the adversarial
// CrashStrict and CrashRandom modes — is crash-consistent on ADR hardware.
//
// The device also keeps precise access statistics and can charge a
// configurable latency per line read/write so that benchmark results
// reproduce the DRAM/NVMM performance gap of real hardware.
//
// # Concurrency design
//
// The engine's scalability curves are only meaningful if the simulator's
// own synchronization stays off the hot path, so durability metadata is
// tracked per line in an atomic state word over preallocated arrays:
//
//   - Stores mark lines dirty with a lock-free CAS; no mutex is taken.
//   - Flush snapshots the line into a preallocated staging image (no
//     allocation) and records the line once in a striped touched-line
//     journal, so Fence commits exactly the flushed lines instead of
//     sweeping every possible line under a global lock.
//   - Access statistics go to counter cells striped by line and split by
//     the access's obs.Cause, folded on Stats(), so concurrent workers do
//     not contend on one cache line of counters. The per-cause split is
//     the device's only count of its traffic; attribution reads it rather
//     than counting again.
//
// The device is safe for concurrent use provided concurrent accesses do not
// overlap byte ranges (the same discipline real memory requires). Crash
// additionally requires that no accesses are in flight, which holds for the
// engine (an injected crash unwinds all workers before Crash is called).
package nvm

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nvcaracal/internal/obs"
)

// LineSize is the simulated cache line size in bytes, the granularity of
// durability tracking.
const LineSize = 64

// stripeCount is the number of journal stripes (and their locks) sharding
// the flushed-line journals. Stores never take these locks; only Flush,
// Fence, and chaos evictions do, and only for the stripe of the line. At
// most 64: Device.occupied keeps one bit per stripe.
const stripeCount = 64

// statStripes is the number of line stripes of the statistic cells.
const statStripes = 64

// Per-line durability state bits.
const (
	// stDirty: stored since last made durable; content only in the live
	// image.
	stDirty = uint32(1) << iota
	// stStaged: a flush snapshotted the line into the staging image; the
	// snapshot awaits a fence.
	stStaged
	// stJournaled: the line has an entry in a journal buffer awaiting the
	// next fence. Invariant: stStaged implies stJournaled.
	stJournaled
)

// CrashMode selects how un-persisted lines behave across a simulated crash.
type CrashMode int

const (
	// CrashStrict drops every line that was not flushed AND fenced. This is
	// the adversarial model: nothing the program did not explicitly persist
	// survives.
	CrashStrict CrashMode = iota
	// CrashRandom lets each non-durable line independently survive with 50%
	// probability, modelling cache evictions that write back dirty lines
	// before a power failure. Recovery code must be correct for every
	// outcome, so tests drive this with many seeds.
	CrashRandom
	// CrashAll persists everything, modelling a flush of all caches on the
	// failure path (eADR hardware). Useful as a control in tests.
	CrashAll
)

// ErrInjectedCrash is the panic value raised when a fail-point installed
// with SetFailAfter triggers. Engine code does not recover from it; tests
// catch it at the top of the epoch loop to simulate a crash at an arbitrary
// persist boundary.
var ErrInjectedCrash = errors.New("nvm: injected crash")

// Stats holds cumulative access counters for a device. All counts are in
// units of line accesses except the byte totals.
type Stats struct {
	LineReads     int64 // lines touched by loads
	LineWrites    int64 // lines touched by stores
	BytesRead     int64
	BytesWritten  int64
	Flushes       int64 // line write-backs issued (dirty lines snapshotted)
	FlushesElided int64 // lines a Flush visited but skipped because already clean
	Fences        int64 // Fence calls
	LinesFenced   int64 // lines made durable by fences
}

// Sub returns s - o, useful for measuring an interval.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LineReads:     s.LineReads - o.LineReads,
		LineWrites:    s.LineWrites - o.LineWrites,
		BytesRead:     s.BytesRead - o.BytesRead,
		BytesWritten:  s.BytesWritten - o.BytesWritten,
		Flushes:       s.Flushes - o.Flushes,
		FlushesElided: s.FlushesElided - o.FlushesElided,
		Fences:        s.Fences - o.Fences,
		LinesFenced:   s.LinesFenced - o.LinesFenced,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d flushes=%d elided=%d fences=%d bytesR=%d bytesW=%d",
		s.LineReads, s.LineWrites, s.Flushes, s.FlushesElided, s.Fences, s.BytesRead, s.BytesWritten)
}

// Option configures a Device.
type Option func(*Device)

// WithLatency charges the given busy-wait latency per line read and write.
// Zero (the default) disables the latency model; unit tests run with it off
// and benchmarks turn it on to reproduce the DRAM/NVMM gap.
func WithLatency(read, write time.Duration) Option {
	return func(d *Device) {
		d.readLatency = read
		d.writeLatency = write
	}
}

// WithFenceLatency charges a busy-wait drain latency per Fence, modelling
// the cost of waiting for issued write-backs to reach the persistence
// domain (SFENCE after CLWB on Optane is several hundred nanoseconds under
// load). Engines that fence per transaction pay it per transaction;
// epoch-based engines amortize it across the batch.
func WithFenceLatency(d time.Duration) Option {
	return func(dev *Device) {
		dev.fenceLatency = d
	}
}

// WithChaosEviction makes the device behave like a real CPU cache: after
// any store, the just-written line may be evicted — written back to the
// persistence domain — with probability 1/denom. An eviction between two
// stores to the same line makes the first store durable without the second,
// which is exactly the torn-update hazard the engine's SID-before-pointer
// protocol and recovery repair must handle. Deterministic given the seed.
func WithChaosEviction(denom int, seed int64) Option {
	return func(d *Device) {
		if denom > 0 {
			d.chaosDenom = denom
			d.chaosState.Store(uint64(seed)*2862933555777941757 + 3037000493)
		}
	}
}

// WithObserver attaches a device observer recording per-call latency
// histograms for the read/write/flush/fence paths. A nil or disabled
// observer leaves only a single predicate check on each path; see
// obs.DeviceObs.
func WithObserver(o *obs.DeviceObs) Option {
	return func(d *Device) {
		d.obs = o
	}
}

// WithAttrib attaches an access-attribution instrument. The device already
// counts every access under the obs.Cause its call site carries (via Tag;
// untagged calls count as CauseOther); the instrument reads those counts
// through CauseCounts and adds the spatial heatmap of line writes, the
// named regions, and write-amplification accounting. Attribution is purely
// observational: it never changes Stats, durability state, or the latency
// model. Nil leaves only a pointer check on each write path.
func WithAttrib(a *obs.Attrib) Option {
	return func(d *Device) {
		d.attrib = a
	}
}

// journalStripe holds one shard of the flushed-line journal: the lines
// staged since the last fence whose line number maps to this stripe. The
// two buffers alternate so Fence can drain one while flushes append to the
// other without reallocating.
type journalStripe struct {
	mu    sync.Mutex
	lines []int64
	spare []int64
	_     [64 - 8]byte // keep stripes off each other's cache lines
}

// statCell holds the access counters of one line stripe and one cause.
// Exactly one cache line so cells do not false-share.
type statCell struct {
	lineReads     atomic.Int64
	lineWrites    atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
	flushes       atomic.Int64
	flushesElided atomic.Int64
	fences        atomic.Int64
	linesFenced   atomic.Int64
}

// FieldWrite is one store of a vectored multi-field write (WriteFields).
type FieldWrite struct {
	Off  int64
	Data []byte
}

// Range is a byte range of the device, for vectored flush/persist calls.
type Range struct {
	Off, N int64
}

// Device is a simulated NVMM region. See the package comment for the
// concurrency contract.
type Device struct {
	size    int64
	nLines  int64
	live    []byte // what loads/stores observe
	durable []byte // what survives a crash
	staging []byte // flushed snapshots awaiting a fence, indexed by line

	// state holds the per-line durability state machine (stDirty,
	// stStaged, stJournaled).
	state []atomic.Uint32

	stripes [stripeCount]journalStripe

	// occupied has bit i set while stripe i may hold journaled lines.
	// flushLine sets a stripe's bit under the stripe lock when it journals
	// a line; fence swaps the mask to zero and drains only the set stripes,
	// so an empty fence takes no stripe lock. A bit may outlive its lines
	// (a fence that drained the stripe after the bit was re-set), which
	// costs the next fence one empty visit and nothing else.
	occupied atomic.Uint64

	readLatency  time.Duration
	writeLatency time.Duration
	fenceLatency time.Duration

	cells [statStripes][obs.NumCauses]statCell

	// failAfter, when positive, counts down on every flushed line; reaching
	// zero panics with ErrInjectedCrash. Disabled when zero or negative.
	failAfter atomic.Int64

	// commitStall, when positive, adds that many nanoseconds of spin to
	// every fence tagged CausePersistFinal without touching any other fence.
	// An engine commit issues two such fences (the checkpoint fence and the
	// epoch record's persist), so each commit is stalled twice; in the Zen
	// baseline every per-transaction commit fence is stalled. Read when the
	// fence runs. A stall fail-point for the anomaly watchdog: the committer
	// slows, durable lag persists, and nothing crashes.
	commitStall atomic.Int64

	// Chaos eviction state (see WithChaosEviction).
	chaosDenom int
	chaosState atomic.Uint64

	// fenceMu serializes Fence (and Crash) so each fence commits a
	// consistent snapshot set.
	fenceMu sync.Mutex

	// Fence-mark tracing (see TraceFences). Guarded by fenceMu.
	traceFences bool
	fenceMarks  []int64

	// obs, when attached and enabled, records per-call latency histograms.
	// Nil-safe: every path asks obs.On() once.
	obs *obs.DeviceObs

	// attrib, when attached, maps line writes onto its heatmap and regions
	// (see WithAttrib). Nil-safe: one pointer check per write path.
	attrib *obs.Attrib
}

// New creates a device of the given size in bytes, rounded up to a whole
// number of lines. The initial contents are zero and durable.
func New(size int64, opts ...Option) *Device {
	if size <= 0 {
		panic("nvm: non-positive device size")
	}
	size = (size + LineSize - 1) / LineSize * LineSize
	d := &Device{
		size:    size,
		nLines:  size / LineSize,
		live:    make([]byte, size),
		durable: make([]byte, size),
		staging: make([]byte, size),
		state:   make([]atomic.Uint32, size/LineSize),
	}
	for _, o := range opts {
		o(d)
	}
	d.attrib.Attach(d.nLines, d.CauseCounts)
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.size }

func (d *Device) check(off, n int64) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(fmt.Sprintf("nvm: access [%d,%d) out of bounds (size %d)", off, off+n, d.size))
	}
}

func lineOf(off int64) int64 { return off / LineSize }

func (d *Device) stripeFor(line int64) *journalStripe {
	return &d.stripes[line%stripeCount]
}

// cellFor picks the statistics cell for an access of cause c starting at
// the given line. Disjoint working sets (per-core pools) land on different
// stripes.
func (d *Device) cellFor(line int64, c obs.Cause) *statCell {
	return &d.cells[uint64(line)%statStripes][c]
}

// spin busy-waits for roughly dur. Busy waiting (rather than sleeping) keeps
// the latency model accurate at the sub-microsecond scale of memory access.
func spin(dur time.Duration) {
	if dur <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < dur {
	}
}

func (d *Device) chargeRead(lines int64) {
	if d.readLatency > 0 {
		spin(time.Duration(lines) * d.readLatency)
	}
}

func (d *Device) chargeWrite(lines int64) {
	if d.writeLatency > 0 {
		spin(time.Duration(lines) * d.writeLatency)
	}
}

func linesSpanned(off, n int64) int64 {
	if n == 0 {
		return 0
	}
	return lineOf(off+n-1) - lineOf(off) + 1
}

// ReadAt copies len(p) bytes starting at off from the live image into p.
func (d *Device) ReadAt(p []byte, off int64) { d.readAt(p, off, obs.CauseOther) }

func (d *Device) readAt(p []byte, off int64, c obs.Cause) {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	n := int64(len(p))
	d.check(off, n)
	copy(p, d.live[off:off+n])
	lines := linesSpanned(off, n)
	cell := d.cellFor(lineOf(off), c)
	cell.lineReads.Add(lines)
	cell.bytesRead.Add(n)
	d.chargeRead(lines)
	if on {
		d.obs.Read.Observe(time.Since(t0))
	}
}

// Slice returns a read-only view of the live image. The caller must not
// mutate it and must not hold it across a Crash. It charges a read for the
// spanned lines, making it equivalent to ReadAt without the copy.
func (d *Device) Slice(off, n int64) []byte { return d.slice(off, n, obs.CauseOther) }

func (d *Device) slice(off, n int64, c obs.Cause) []byte {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.check(off, n)
	lines := linesSpanned(off, n)
	cell := d.cellFor(lineOf(off), c)
	cell.lineReads.Add(lines)
	cell.bytesRead.Add(n)
	d.chargeRead(lines)
	if on {
		d.obs.Read.Observe(time.Since(t0))
	}
	return d.live[off : off+n : off+n]
}

// seqWriteFactor discounts the latency of large contiguous writes: Optane's
// sequential write bandwidth is several times its random-write bandwidth,
// and a multi-line WriteAt models a streaming store sequence (e.g. the
// input log). Only the latency model is affected; line counts in Stats stay
// exact.
const seqWriteFactor = 4

// chargedWriteLines applies the sequential-write discount to the latency
// model (not the counters) for a store spanning the given line count.
func chargedWriteLines(lines int64) int64 {
	if lines >= seqWriteFactor {
		return (lines + seqWriteFactor - 1) / seqWriteFactor
	}
	return lines
}

// WriteAt stores p at off in the live image and marks the spanned lines
// dirty. The data is not durable until it is flushed and fenced.
func (d *Device) WriteAt(p []byte, off int64) { d.writeAt(p, off, obs.CauseOther) }

func (d *Device) writeAt(p []byte, off int64, c obs.Cause) {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	n := int64(len(p))
	d.check(off, n)
	copy(d.live[off:off+n], p)
	d.markDirty(off, n)
	lines := linesSpanned(off, n)
	cell := d.cellFor(lineOf(off), c)
	cell.lineWrites.Add(lines)
	cell.bytesWritten.Add(n)
	d.attrib.RecordWrite(lineOf(off), lines)
	d.chargeWrite(chargedWriteLines(lines))
	if on {
		d.obs.Write.Observe(time.Since(t0))
	}
}

// Zero clears n bytes at off, with store semantics. Like WriteAt it models
// a streaming store sequence, so large contiguous zeroing (e.g. pool
// initialization) gets the same sequential-write latency discount.
func (d *Device) Zero(off, n int64) { d.zero(off, n, obs.CauseOther) }

func (d *Device) zero(off, n int64, c obs.Cause) {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.check(off, n)
	clear(d.live[off : off+n])
	d.markDirty(off, n)
	lines := linesSpanned(off, n)
	cell := d.cellFor(lineOf(off), c)
	cell.lineWrites.Add(lines)
	cell.bytesWritten.Add(n)
	d.attrib.RecordWrite(lineOf(off), lines)
	d.chargeWrite(chargedWriteLines(lines))
	if on {
		d.obs.Write.Observe(time.Since(t0))
	}
}

// markDirty transitions the spanned lines to dirty with a lock-free CAS per
// line. With chaos eviction enabled, a line may instead be written back to
// the persistence domain immediately.
func (d *Device) markDirty(off, n int64) {
	first, last := lineOf(off), lineOf(off+n-1)
	for l := first; l <= last; l++ {
		if d.chaosDenom > 0 && d.chaosRoll() {
			d.evictLine(l)
			continue
		}
		st := &d.state[l]
		for {
			s := st.Load()
			if s&stDirty != 0 || st.CompareAndSwap(s, s|stDirty) {
				break
			}
		}
	}
}

// evictLine models a spontaneous cache eviction: the line, including the
// store that triggered the roll, reaches the persistence domain immediately
// (ADR), no fence required. Any staged snapshot is dropped; a journal entry
// left behind is skipped by the next fence.
func (d *Device) evictLine(l int64) {
	sp := d.stripeFor(l)
	sp.mu.Lock()
	copy(d.durable[l*LineSize:(l+1)*LineSize], d.live[l*LineSize:(l+1)*LineSize])
	st := &d.state[l]
	for {
		s := st.Load()
		if st.CompareAndSwap(s, s&^(stDirty|stStaged)) {
			break
		}
	}
	sp.mu.Unlock()
}

// chaosRoll advances a xorshift PRNG and reports a 1/denom hit. The state
// is a single atomic so concurrent stores stay race-free; a lost update
// only perturbs the random sequence.
func (d *Device) chaosRoll() bool {
	x := d.chaosState.Load()
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	d.chaosState.Store(x)
	return x%uint64(d.chaosDenom) == 0
}

// Load64 reads a little-endian uint64 at off.
func (d *Device) Load64(off int64) uint64 { return d.load64(off, obs.CauseOther) }

func (d *Device) load64(off int64, c obs.Cause) uint64 {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.check(off, 8)
	b := d.live[off : off+8]
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	lines := linesSpanned(off, 8)
	cell := d.cellFor(lineOf(off), c)
	cell.lineReads.Add(lines)
	cell.bytesRead.Add(8)
	d.chargeRead(lines)
	if on {
		d.obs.Read.Observe(time.Since(t0))
	}
	return v
}

// Store64 writes a little-endian uint64 at off with store semantics.
func (d *Device) Store64(off int64, v uint64) { d.store64(off, v, obs.CauseOther) }

func (d *Device) store64(off int64, v uint64, c obs.Cause) {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.check(off, 8)
	b := d.live[off : off+8]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
	d.markDirty(off, 8)
	lines := linesSpanned(off, 8)
	cell := d.cellFor(lineOf(off), c)
	cell.lineWrites.Add(lines)
	cell.bytesWritten.Add(8)
	d.attrib.RecordWrite(lineOf(off), lines)
	d.chargeWrite(lines)
	if on {
		d.obs.Write.Observe(time.Since(t0))
	}
}

// Load32 reads a little-endian uint32 at off.
func (d *Device) Load32(off int64) uint32 { return d.load32(off, obs.CauseOther) }

func (d *Device) load32(off int64, c obs.Cause) uint32 {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.check(off, 4)
	b := d.live[off : off+4]
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	cell := d.cellFor(lineOf(off), c)
	cell.lineReads.Add(1)
	cell.bytesRead.Add(4)
	d.chargeRead(1)
	if on {
		d.obs.Read.Observe(time.Since(t0))
	}
	return v
}

// Store32 writes a little-endian uint32 at off with store semantics.
func (d *Device) Store32(off int64, v uint32) { d.store32(off, v, obs.CauseOther) }

func (d *Device) store32(off int64, v uint32, c obs.Cause) {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.check(off, 4)
	b := d.live[off : off+4]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	d.markDirty(off, 4)
	cell := d.cellFor(lineOf(off), c)
	cell.lineWrites.Add(1)
	cell.bytesWritten.Add(4)
	d.attrib.RecordWrite(lineOf(off), 1)
	d.chargeWrite(1)
	if on {
		d.obs.Write.Observe(time.Since(t0))
	}
}

// WriteFields applies a vector of stores, then flushes the given ranges,
// in one device call: the engine's per-row final write (value bytes plus
// the version descriptor fields) and the WAL's epoch append (payload plus
// header) each become a single call instead of a store-flush round trip
// per field.
//
// Counting is identical to issuing every store and flush individually —
// each field charges its own spanned lines, exactly as a separate WriteAt
// or StoreN would — so substituting WriteFields at a call site never moves
// an access counter. Store order (and therefore chaos-eviction rolls and
// the SID-before-pointer crash protocol) is the slice order; flushes run
// after all stores, which leaves every per-range dirty set unchanged as
// long as the flush ranges do not overlap lines stored by later fields at
// the original call site (the engine's call sites flush disjoint ranges).
func (d *Device) WriteFields(fields []FieldWrite, flushes []Range) {
	d.writeFields(fields, flushes, obs.CauseOther)
}

func (d *Device) writeFields(fields []FieldWrite, flushes []Range, c obs.Cause) {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	var lines, chargedLines, bytes int64
	var cell *statCell
	for _, f := range fields {
		n := int64(len(f.Data))
		if n == 0 {
			continue
		}
		d.check(f.Off, n)
		copy(d.live[f.Off:f.Off+n], f.Data)
		d.markDirty(f.Off, n)
		ln := linesSpanned(f.Off, n)
		lines += ln
		chargedLines += chargedWriteLines(ln)
		bytes += n
		if cell == nil {
			cell = d.cellFor(lineOf(f.Off), c)
		}
		// Per field, not per call: a vectored write's fields may land in
		// different regions of the address space (value heap vs. row
		// descriptor), and the heatmap wants each span.
		d.attrib.RecordWrite(lineOf(f.Off), ln)
	}
	if cell != nil {
		cell.lineWrites.Add(lines)
		cell.bytesWritten.Add(bytes)
		d.chargeWrite(chargedLines)
	}
	if on {
		// Store portion only; the flushes below record into the Flush
		// histogram themselves.
		d.obs.Write.Observe(time.Since(t0))
	}
	for _, r := range flushes {
		d.flush(r.Off, r.N, c)
	}
}

// Flush issues a write-back for every line in [off, off+n). Each flushed
// line's current content is snapshotted; a subsequent Fence makes the
// snapshots durable. Flushing a clean line is a no-op (as on hardware) and
// takes no lock; the elision pass counts every such skip, so each line a
// Flush visits lands in exactly one of Flushes or FlushesElided.
func (d *Device) Flush(off, n int64) { d.flush(off, n, obs.CauseOther) }

func (d *Device) flush(off, n int64, c obs.Cause) {
	if n == 0 {
		return
	}
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.check(off, n)
	touched := false
	var elided int64
	first, last := lineOf(off), lineOf(off+n-1)
	for l := first; l <= last; l++ {
		if d.state[l].Load()&stDirty == 0 {
			// Clean since the last fence (durable, or staged with the same
			// content a second write-back would snapshot): elide.
			elided++
			continue
		}
		if !d.flushLine(l, c) {
			// The dirty bit vanished under us (chaos eviction won the race):
			// the line is durable, the write-back is unnecessary.
			elided++
		}
		touched = true
	}
	if elided > 0 {
		d.cellFor(first, c).flushesElided.Add(elided)
	}
	// Clean-range flushes are hardware no-ops; recording them would drown
	// the histogram in zeros.
	if on && touched {
		d.obs.Flush.Observe(time.Since(t0))
	}
}

// flushLine snapshots one dirty line into the staging image and journals it
// for the next fence. The stripe lock excludes a concurrent fence commit or
// chaos eviction of the same line; stores stay lock-free, so the state CAS
// can race with a concurrent markDirty — on CAS failure the snapshot is
// retaken so a dirty marking is only ever cleared by a snapshot that
// includes its bytes. The write-back is counted under cause c.
func (d *Device) flushLine(l int64, c obs.Cause) bool {
	sp := d.stripeFor(l)
	sp.mu.Lock()
	st := &d.state[l]
	for {
		s := st.Load()
		if s&stDirty == 0 {
			sp.mu.Unlock()
			return false
		}
		copy(d.staging[l*LineSize:(l+1)*LineSize], d.live[l*LineSize:(l+1)*LineSize])
		if st.CompareAndSwap(s, s&^stDirty|stStaged|stJournaled) {
			if s&stJournaled == 0 {
				sp.lines = append(sp.lines, l)
				d.markOccupied(l % stripeCount)
			}
			break
		}
	}
	d.cellFor(l, c).flushes.Add(1)
	if d.failAfter.Load() > 0 && d.failAfter.Add(-1) == 0 {
		sp.mu.Unlock()
		panic(ErrInjectedCrash)
	}
	sp.mu.Unlock()
	return true
}

// markOccupied sets stripe i's bit in the occupancy mask. The caller holds
// the stripe's lock, so a fence that swaps the mask before this store
// drains the stripe after the caller's journal append, and one that swaps
// it after sees the bit.
func (d *Device) markOccupied(i int64) {
	bit := uint64(1) << i
	for {
		m := d.occupied.Load()
		if m&bit != 0 || d.occupied.CompareAndSwap(m, m|bit) {
			return
		}
	}
}

// Persist is Flush followed by Fence: the range is durable on return.
func (d *Device) Persist(off, n int64) {
	d.Flush(off, n)
	d.Fence()
}

func (d *Device) persist(off, n int64, c obs.Cause) {
	d.flush(off, n, c)
	d.fence(c)
}

// PersistRange flushes every given range and issues one fence: a vectored
// Persist for call sites that previously flushed several regions and
// fenced once (or fenced per region, where a single trailing fence is
// equivalent because the final durable state is identical).
func (d *Device) PersistRange(ranges ...Range) {
	d.persistRange(obs.CauseOther, ranges...)
}

func (d *Device) persistRange(c obs.Cause, ranges ...Range) {
	for _, r := range ranges {
		d.flush(r.Off, r.N, c)
	}
	d.fence(c)
}

// Fence commits every staged line snapshot to the durable image. It models
// SFENCE on an ADR platform: previously issued write-backs are now in the
// persistence domain. Only the journal stripes that hold lines flushed
// since the last fence are visited, so the cost is proportional to those
// lines, not to the device size or the stripe count: a fence with nothing
// flushed takes no stripe lock.
func (d *Device) Fence() { d.fence(obs.CauseOther) }

func (d *Device) fence(c obs.Cause) {
	on := d.obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	d.fenceMu.Lock()
	defer d.fenceMu.Unlock()
	d.cells[0][c].fences.Add(1)
	if d.traceFences {
		d.fenceMarks = append(d.fenceMarks, d.foldFlushes())
	}
	spin(d.fenceLatency)
	if c == obs.CausePersistFinal {
		if stall := d.commitStall.Load(); stall > 0 {
			spin(time.Duration(stall))
		}
	}
	var committed int64
	for mask := d.occupied.Swap(0); mask != 0; mask &= mask - 1 {
		sp := &d.stripes[bits.TrailingZeros64(mask)]
		sp.mu.Lock()
		batch := sp.lines
		sp.lines, sp.spare = sp.spare[:0], batch
		for _, l := range batch {
			st := &d.state[l]
			for {
				s := st.Load()
				if st.CompareAndSwap(s, s&^(stStaged|stJournaled)) {
					if s&stStaged != 0 {
						copy(d.durable[l*LineSize:(l+1)*LineSize], d.staging[l*LineSize:(l+1)*LineSize])
						committed++
					}
					break
				}
			}
		}
		sp.mu.Unlock()
	}
	d.cells[0][c].linesFenced.Add(committed)
	if on {
		// Includes the wait for fenceMu: contending fences stall each other,
		// and that serialization is exactly what the fence-stall total (the
		// histogram's sum) surfaces.
		d.obs.Fence.Observe(time.Since(t0))
	}
}

// Crash simulates a power failure: the live image is rebuilt from the
// durable image. mode controls the fate of non-durable lines; seed drives
// CrashRandom. All staged and dirty state is cleared. Statistics survive.
// The caller must ensure no accesses are in flight.
func (d *Device) Crash(mode CrashMode, seed int64) {
	d.fenceMu.Lock()
	defer d.fenceMu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	for l := int64(0); l < d.nLines; l++ {
		s := d.state[l].Load()
		if s&(stDirty|stStaged) != 0 {
			lo, hi := l*LineSize, (l+1)*LineSize
			switch mode {
			case CrashStrict:
				// Neither dirty nor merely-staged lines survive.
			case CrashAll:
				// A staged snapshot models an issued write-back: it is what
				// the failure-path cache flush finds in flight. A line dirty
				// on top of a stale snapshot keeps the snapshot (the second
				// store was never written back).
				if s&stStaged != 0 {
					copy(d.durable[lo:hi], d.staging[lo:hi])
				} else {
					copy(d.durable[lo:hi], d.live[lo:hi])
				}
			case CrashRandom:
				// Each non-durable image rolls independently, mirroring the
				// eviction lottery of real caches: a dirty line may be
				// written back, and an issued-but-unfenced write-back may
				// have landed.
				if s&stDirty != 0 && rng.Intn(2) == 0 {
					copy(d.durable[lo:hi], d.live[lo:hi])
				}
				if s&stStaged != 0 && rng.Intn(2) == 0 {
					copy(d.durable[lo:hi], d.staging[lo:hi])
				}
			}
		}
		if s != 0 {
			d.state[l].Store(0)
		}
	}
	for i := range d.stripes {
		sp := &d.stripes[i]
		sp.lines = sp.lines[:0]
		sp.spare = sp.spare[:0]
	}
	d.occupied.Store(0)
	copy(d.live, d.durable)
	d.failAfter.Store(0)
}

// SetFailAfter installs a fail-point: after n more flushed lines the device
// panics with ErrInjectedCrash. n <= 0 disables the fail-point. Flushes of
// clean lines are no-ops and do not count.
//
// Torn-prefix semantics under vectored calls: when the fail-point fires
// inside a WriteFields or PersistRange call, every field store of the call
// has already reached the live image (stores precede flushes), the firing
// line and every line flushed before it are staged (write-backs issued),
// and later flush ranges are dirty-only. No trailing fence has run, so
// under CrashStrict nothing from the interrupted call survives; under
// CrashAll/CrashRandom the staged prefix may land while the dirty suffix
// may only land via the live image — exactly the outcomes an interrupted
// CLWB sequence permits on real hardware. A fail-point therefore never
// splits an individual field store, only the flush sequence.
func (d *Device) SetFailAfter(n int64) { d.failAfter.Store(n) }

// SetCommitStall is a runtime fault-injection knob: every subsequent fence
// tagged CausePersistFinal spins an extra d on top of the configured fence
// latency, while all other fences run at normal speed. An engine epoch
// commit issues two such fences — the checkpoint fence and the epoch
// record's persist (pmem.EpochRecord.Store) — so it is stalled by 2*d; in
// the Zen baseline every per-transaction commit fence is stalled. It slows
// the committer without crashing anything, so the durable epoch lags and
// the anomaly watchdog's committer-stall and durable-lag detectors can be
// exercised deterministically. The value is read when a fence runs, not
// when it is queued: a fence that starts after the stall is changed runs
// at the new value. Zero disables.
func (d *Device) SetCommitStall(stall time.Duration) { d.commitStall.Store(int64(stall)) }

// addTo adds the cell's counters into s.
func (c *statCell) addTo(s *Stats) {
	s.LineReads += c.lineReads.Load()
	s.LineWrites += c.lineWrites.Load()
	s.BytesRead += c.bytesRead.Load()
	s.BytesWritten += c.bytesWritten.Load()
	s.Flushes += c.flushes.Load()
	s.FlushesElided += c.flushesElided.Load()
	s.Fences += c.fences.Load()
	s.LinesFenced += c.linesFenced.Load()
}

// store overwrites the cell's counters.
func (c *statCell) store(s Stats) {
	c.lineReads.Store(s.LineReads)
	c.lineWrites.Store(s.LineWrites)
	c.bytesRead.Store(s.BytesRead)
	c.bytesWritten.Store(s.BytesWritten)
	c.flushes.Store(s.Flushes)
	c.flushesElided.Store(s.FlushesElided)
	c.fences.Store(s.Fences)
	c.linesFenced.Store(s.LinesFenced)
}

// causeStats folds the line stripes into per-cause totals.
func (d *Device) causeStats() [obs.NumCauses]Stats {
	var out [obs.NumCauses]Stats
	for i := range d.cells {
		for c := range d.cells[i] {
			d.cells[i][c].addTo(&out[c])
		}
	}
	return out
}

// Stats returns a snapshot of the cumulative access counters, folding the
// striped per-cause cells.
func (d *Device) Stats() Stats {
	var s Stats
	for i := range d.cells {
		for c := range d.cells[i] {
			d.cells[i][c].addTo(&s)
		}
	}
	return s
}

// CauseCounts returns the cumulative access counters split by the cause
// each access was tagged with; the per-cause counts tile Stats exactly
// (LinesFenced, which obs.CauseCounts does not carry, aside). It is the
// source WithAttrib attaches to the attribution instrument.
func (d *Device) CauseCounts() [obs.NumCauses]obs.CauseCounts {
	var out [obs.NumCauses]obs.CauseCounts
	for c, s := range d.causeStats() {
		out[c] = obs.CauseCounts{
			LineReads: s.LineReads, LineWrites: s.LineWrites,
			BytesRead: s.BytesRead, BytesWritten: s.BytesWritten,
			Flushes: s.Flushes, FlushesElided: s.FlushesElided, Fences: s.Fences,
		}
	}
	return out
}

// ResetStats zeroes all counters, and with them the attribution counts
// read from them (see obs.Attrib.Reset).
func (d *Device) ResetStats() {
	for i := range d.cells {
		for c := range d.cells[i] {
			d.cells[i][c].store(Stats{})
		}
	}
}

// DirtyLines reports how many lines are dirty or staged (not yet durable).
// Intended for tests and diagnostics.
func (d *Device) DirtyLines() int {
	var n int
	for l := int64(0); l < d.nLines; l++ {
		if d.state[l].Load()&(stDirty|stStaged) != 0 {
			n++
		}
	}
	return n
}
