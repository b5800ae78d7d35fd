package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// valueKind classifies a transient version value.
type valueKind uint8

const (
	// vkData is a regular value.
	vkData valueKind = iota
	// vkDeleted marks a row deletion at this serial id.
	vkDeleted
	// vkIgnore marks a version whose writer aborted; readers skip it
	// (paper §4.6).
	vkIgnore
	// vkNotFound is the initial version of a row that does not exist before
	// this epoch (i.e. the row is being inserted this epoch).
	vkNotFound
)

// versionVal is one materialized version value in the transient pool. The
// struct itself is immutable after publication through the version array's
// atomic slot.
type versionVal struct {
	kind valueKind
	data []byte
	// nvOff/nvLen locate the bytes on the NVMM device for ModeAllNVMM,
	// where transient values live in (and are re-read from) NVMM scratch.
	// -1 when the value lives in DRAM.
	nvOff int64
	nvLen int
}

var (
	ignoreVal   = &versionVal{kind: vkIgnore, nvOff: -1}
	deletedVal  = &versionVal{kind: vkDeleted, nvOff: -1}
	notFoundVal = &versionVal{kind: vkNotFound, nvOff: -1}
)

// versionArray holds all versions of one row within one epoch, sorted by
// serial id (paper §3.1.2): slot 0 is the initial version (the row's state
// entering the epoch), and the remaining slots are the pending versions
// pre-created by the initialization phase. Writers publish values into
// their pre-assigned slot with an atomic store; readers binary-search for
// the latest version below their own serial id and wait while it is
// pending (nil): a short spin, then a park on the DB's waitGate.
type versionArray struct {
	epoch  uint64
	sids   []uint64 // ascending; sids[0] == 0 is the initial version
	vals   []atomic.Pointer[versionVal]
	maxSID uint64 // sids[len-1]: the final writer, which persists to NVMM

	// gate, shared from the DB, parks readers of pending slots and breaks
	// their waits when a sibling worker panicked (e.g. an injected crash)
	// so the epoch can unwind. Nil (unit tests) spins without parking.
	gate *waitGate

	// wasCached notes that the row had a cached version entering this
	// epoch; with CacheHotOnly it marks the row as worth re-caching.
	wasCached bool
}

func newVersionArray(epoch uint64, sids []uint64, gate *waitGate) *versionArray {
	va := &versionArray{
		epoch:  epoch,
		sids:   sids,
		vals:   make([]atomic.Pointer[versionVal], len(sids)),
		maxSID: sids[len(sids)-1],
		gate:   gate,
	}
	return va
}

// slotOf returns the index whose sid equals the writer's sid. The append
// step guarantees presence; a miss is an engine bug.
func (va *versionArray) slotOf(sid uint64) int {
	lo, hi := 1, len(va.sids)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case va.sids[mid] == sid:
			return mid
		case va.sids[mid] < sid:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	panic("core: writer sid not found in version array")
}

// readSlot returns the index of the latest version with sid strictly below
// the reader's sid. Index 0 (the initial version) is the floor.
func (va *versionArray) readSlot(sid uint64) int {
	lo, hi := 0, len(va.sids)-1
	ans := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if va.sids[mid] < sid {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ans
}

// waitGate is the DB-wide rendezvous for pending version slots. A reader
// whose writer has not published yet spins briefly (the common case: the
// writer runs on another core and publishes within microseconds), then
// parks on the gate until some slot is published or the epoch unwinds.
// Parking matters when the machine has more runnable threads than CPUs:
// runtime.Gosched yields only to goroutines of this process, so a reader
// that only yields keeps its OS thread busy for whole scheduler time
// slices while the thread of the writer it waits on is descheduled, and
// every dependent transaction crawls. Publishers pay one atomic load while
// nobody is parked.
type waitGate struct {
	abort  atomic.Bool
	parked atomic.Int32
	mu     sync.Mutex
	wake   chan struct{} // closed to release every parked reader; nil when none
}

// reset re-arms the gate for a new epoch.
func (g *waitGate) reset() { g.abort.Store(false) }

// unwind breaks every wait of the current epoch: waiters panic with
// errEpochUnwound.
func (g *waitGate) unwind() {
	g.abort.Store(true)
	g.release()
}

// release wakes every parked reader; each re-checks its slot.
func (g *waitGate) release() {
	g.mu.Lock()
	if g.wake != nil {
		close(g.wake)
		g.wake = nil
	}
	g.mu.Unlock()
}

// park blocks until the gate is released, unless ready already holds once
// the caller is registered as parked. The registration precedes the check
// and a publisher's store precedes its look at parked, so either the
// check sees the published slot or the publisher sees the parked reader
// and releases the channel taken here.
func (g *waitGate) park(ready func() bool) {
	g.parked.Add(1)
	g.mu.Lock()
	if g.wake == nil {
		g.wake = make(chan struct{})
	}
	ch := g.wake
	g.mu.Unlock()
	if !ready() {
		<-ch
	}
	g.parked.Add(-1)
}

// spinBeforePark bounds a reader's spin on a pending slot: 64 tight
// iterations, then runtime.Gosched until the budget is spent.
const spinBeforePark = 256

// publish stores v into slot i and wakes readers parked on the gate.
func (va *versionArray) publish(i int, v *versionVal) {
	va.vals[i].Store(v)
	if g := va.gate; g != nil && g.parked.Load() > 0 {
		g.release()
	}
}

// waitValue waits until slot i is published, then returns it. The
// deterministic serial order guarantees progress: a reader only ever waits
// on smaller serial ids, and the smallest unfinished transaction never
// waits (see engine.go's worker assignment).
func (va *versionArray) waitValue(i int) *versionVal {
	for spins := 0; ; spins++ {
		if v := va.vals[i].Load(); v != nil {
			return v
		}
		if spins < 64 {
			continue
		}
		g := va.gate
		if g != nil && g.abort.Load() {
			panic(errEpochUnwound)
		}
		if g == nil || spins < spinBeforePark {
			runtime.Gosched()
			continue
		}
		g.park(func() bool { return va.vals[i].Load() != nil || g.abort.Load() })
	}
}

// resolveRead walks down from the slot for the reader's sid, skipping
// IGNORE markers from aborted writers, and returns the first real value
// (which may be vkDeleted, vkNotFound, or slot 0's initial version).
func (va *versionArray) resolveRead(sid uint64) *versionVal {
	for i := va.readSlot(sid); ; i-- {
		v := va.waitValue(i)
		if v.kind != vkIgnore {
			return v
		}
		if i == 0 {
			panic("core: initial version marked ignore")
		}
	}
}

// latestCommitted returns the latest non-ignore version at or below slot
// hi, waiting out pending slots. Used by an aborted final writer to find
// the value that must be persisted in its stead (§4.6). Returns the slot
// index and value.
func (va *versionArray) latestCommitted(hi int) (int, *versionVal) {
	for i := hi; ; i-- {
		v := va.waitValue(i)
		if v.kind != vkIgnore {
			return i, v
		}
		if i == 0 {
			panic("core: initial version marked ignore")
		}
	}
}

// cachedVersion is the DRAM copy of a row's latest persistent value
// (paper §4.2). stamp is the last epoch that created or touched it, driving
// the K-epoch LRU eviction.
type cachedVersion struct {
	data    []byte
	deleted bool // cached "row does not exist" is never stored; kept for clarity
	stamp   atomic.Uint64
}

// rowState is the DRAM index entry for one row (Figure 3's row index).
type rowState struct {
	nvOff int64 // persistent row offset
	owner int32 // owner core: routes init-phase work and major GC

	// va is the row's version array for the current epoch, published by
	// the append step and unlinked at the epoch boundary. An array of
	// another epoch is still detected via va.epoch (paper §5.1's
	// stale-pointer trick).
	va atomic.Pointer[versionArray]

	// cached is the row's cached version, nil when evicted or invalidated.
	cached atomic.Pointer[cachedVersion]

	// onEvictList notes the row is already queued on some eviction list so
	// concurrent cache fills do not double-queue it.
	onEvictList atomic.Bool
}

// currentVA returns the row's version array if it belongs to epoch, else
// nil.
func (rs *rowState) currentVA(epoch uint64) *versionArray {
	va := rs.va.Load()
	if va != nil && va.epoch == epoch {
		return va
	}
	return nil
}
