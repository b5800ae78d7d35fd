package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// Control-line field offsets (all fields share one cache line, which is
// safe: a checkpoint modifies only the current-parity slots and then
// persists the line; an un-fenced crash reverts the whole line to the
// previous checkpoint's content, in which the other-parity slots are the
// ones recovery reads).
//
// Offsets 48 and 56 held layout v4's non-revertible current-tail stage
// (epoch stamp + tail), persisted with its own fence after major GC. Layout
// v5 replaced that mechanism with self-validating stamped ring entries (see
// Free/FreeGC): recovery now identifies the crashed epoch's GC frees from
// the entries themselves, so the slots are unused and the stage fence is
// gone.
const (
	ctlBump0 = 0  // bump offset, even-epoch checkpoint
	ctlBump1 = 8  // bump offset, odd-epoch checkpoint
	ctlHead0 = 16 // free-list head, even
	ctlHead1 = 24 // free-list head, odd
	ctlTail0 = 32 // free-list tail, even
	ctlTail1 = 40 // free-list tail, odd
)

// ringStride is the byte footprint of one free-ring entry: the freed slot
// offset plus its validation stamp. Entries never straddle a cache line
// (64/16 divides evenly), so an entry is all-or-nothing under any crash
// mode.
const ringStride = 16

// Ring-entry kinds, mixed into the stamp. A transaction free ('T') is
// revertible: a crash before the epoch checkpoints must un-free the slot,
// so recovery never adopts it. A major-GC free ('G') is non-revertible:
// recovery must adopt it if the freeing epoch's phase-2 row rewrites could
// have reached NVMM, or the slot would leak.
const (
	entryTxn = 'T'
	entryGC  = 'G'
)

// entryStamp hashes an entry's identity — kind, monotonic logical ring
// position, freeing epoch, and the freed offset — so Recover can tell a
// durably-landed entry of the crashed epoch from stale ring bytes of an
// earlier epoch (or of an earlier wrap of the same ring slot) without any
// separately-persisted extent pointer.
func entryStamp(kind byte, pos int64, epoch uint64, off int64) uint64 {
	h := uint64(idxFnvOffset)
	for _, v := range [4]uint64{uint64(kind), uint64(pos), epoch, uint64(off)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= idxFnvPrime
		}
	}
	return h
}

// ErrPoolFull is returned when neither the free list nor the bump region
// can satisfy an allocation.
var ErrPoolFull = errors.New("pmem: pool out of space")

// Pool is one core's persistent slot allocator: a bump allocator over a
// fixed slot region plus a ring-buffer free list, both with dual
// epoch-checkpointed control offsets (paper §5.4, Figure 4).
//
// A Pool is owned by a single core: all calls must come from one goroutine
// at a time. Cross-core offsets may be freed into any pool because ring
// entries are absolute device offsets.
//
// All pool device traffic (ring appends/reads, control-line checkpoints)
// is attributed to obs.CauseAlloc, including appends made on behalf of GC:
// the GC causes cover row rewrites only, allocator bookkeeping stays with
// the allocator.
type Pool struct {
	dev      nvm.Tagged
	ctlOff   int64
	ringOff  int64
	dataOff  int64
	slotSize int64
	capSlots int64
	ringCap  int64

	// DRAM state (Figure 4's "offset", "head", "tail").
	bump int64 // slots handed out from the bump region
	head int64 // logical free-list consume position (monotonic)
	tail int64 // logical free-list append position (monotonic)

	// Checkpoint barriers. Atomic because a pipelined committer publishes
	// them (Checkpointed) while the owner core already allocates inside the
	// next epoch: Alloc reads tailCkpt, appendEntry reads headCkpt. A stale
	// read is conservative in both places — Alloc falls back to the bump
	// region, the overflow check trips early.
	headCkpt atomic.Int64 // head at last checkpoint: entries >= headCkpt must survive a crash
	tailCkpt atomic.Int64 // tail at last checkpoint: allocations must not cross it (invariant 2)

	// Control values captured by Checkpoint for the epoch being committed.
	// Checkpointed publishes these, not the live offsets: under a pipelined
	// commit the next epoch may already have advanced head/tail, and those
	// moves belong to its own future checkpoint.
	stagedHead, stagedTail int64

	// ctl mirrors the control line's two parity slots (bump, head, tail),
	// so Checkpoint can skip a slot that already holds its values. A slot
	// not yet written or read since the pool was opened holds -1s.
	ctl [2][3]int64

	// Ring-flush bookkeeping: appends since the last flush.
	flushFrom int64
}

// RowPool returns core c's persistent row pool.
func RowPool(dev *nvm.Device, l Layout, c int) *Pool {
	return &Pool{
		dev:      dev.Tag(obs.CauseAlloc),
		ctlOff:   l.rowCtlOff[c],
		ringOff:  l.rowRingOff[c],
		dataOff:  l.rowDataOff[c],
		slotSize: l.RowSize,
		capSlots: l.RowsPerCore,
		ringCap:  l.RingCap,
		ctl:      unknownCtl,
	}
}

// ValuePool returns core c's persistent value pool for size class k.
func ValuePool(dev *nvm.Device, l Layout, k, c int) *Pool {
	return &Pool{
		dev:      dev.Tag(obs.CauseAlloc),
		ctlOff:   l.valCtlOff[k][c],
		ringOff:  l.valRingOff[k][c],
		dataOff:  l.valDataOff[k][c],
		slotSize: l.valClasses[k],
		capSlots: l.ValuesPerCore,
		ringCap:  l.RingCap,
		ctl:      unknownCtl,
	}
}

// unknownCtl marks both parity slots as unknown: offsets are never
// negative, so the first checkpoint of each parity writes it.
var unknownCtl = [2][3]int64{{-1, -1, -1}, {-1, -1, -1}}

// SlotSize returns the fixed slot size of this pool.
func (p *Pool) SlotSize() int64 { return p.slotSize }

// DataBase returns the base offset of the pool's slot region.
func (p *Pool) DataBase() int64 { return p.dataOff }

// Bump returns the number of slots handed out from the bump region.
func (p *Pool) Bump() int64 { return p.bump }

// FreeCount returns the number of entries currently on the free list.
func (p *Pool) FreeCount() int64 { return p.tail - p.head }

// UsedBytes returns the bytes of the bump region in use (upper bound on
// live data; free-list slots within it are reusable).
func (p *Pool) UsedBytes() int64 { return p.bump * p.slotSize }

func (p *Pool) ringSlotOff(pos int64) int64 {
	return p.ringOff + (pos%p.ringCap)*ringStride
}

// Alloc returns the device offset of a free slot. It prefers the free list
// but never consumes entries appended after the last checkpoint (invariant
// 2: slots freed in the current epoch must not be reused until the epoch is
// checkpointed, so their deletion can be reverted). Allocation never writes
// NVMM: only the DRAM head or bump offset moves.
func (p *Pool) Alloc() (int64, error) {
	if p.head < p.tailCkpt.Load() {
		off := int64(p.dev.Load64(p.ringSlotOff(p.head)))
		p.head++
		return off, nil
	}
	if p.bump < p.capSlots {
		off := p.dataOff + p.bump*p.slotSize
		p.bump++
		return off, nil
	}
	return 0, fmt.Errorf("%w (cap %d slots of %d bytes)", ErrPoolFull, p.capSlots, p.slotSize)
}

// Free appends the slot at off to the free list as a revertible
// transaction free. The ring entry is written to NVMM but not flushed;
// FlushRing batches the writeback. The entry becomes allocatable only after
// the next checkpoint.
func (p *Pool) Free(off int64) { p.appendEntry(entryTxn, 0, off) }

// FreeGC appends the slot at off to the free list as a non-revertible
// major-GC free of the given epoch. The entry's stamp is what recovery
// validates when it adopts the crashed epoch's GC frees, so the caller must
// make all GC entries durable (FlushRing + one fence) before rewriting any
// row in phase 2 — that single fence is the only ordering major GC needs.
func (p *Pool) FreeGC(off int64, epoch uint64) { p.appendEntry(entryGC, epoch, off) }

func (p *Pool) appendEntry(kind byte, epoch uint64, off int64) {
	if p.tail-p.headCkpt.Load() >= p.ringCap {
		// The ring must retain every entry from the last checkpointed head
		// onward so a crash can revert consumption; running out means the
		// pool was sized too small for the workload's churn.
		panic(fmt.Sprintf("pmem: free-list ring overflow (cap %d)", p.ringCap))
	}
	// One 16-byte store: an entry never straddles a line, and the stamp
	// already rejects one whose offset and stamp did not land together.
	var e [ringStride]byte
	binary.LittleEndian.PutUint64(e[:8], uint64(off))
	binary.LittleEndian.PutUint64(e[8:], entryStamp(kind, p.tail, epoch, off))
	p.dev.WriteAt(e[:], p.ringSlotOff(p.tail))
	p.tail++
}

// FlushRing issues write-backs for all ring entries appended since the last
// flush. Sequential appends flush at line granularity, matching the paper's
// batched free-list persistence.
func (p *Pool) FlushRing() {
	for pos := p.flushFrom; pos < p.tail; {
		slot := p.ringSlotOff(pos)
		lineStart := slot / line * line
		lineEnd := lineStart + line
		p.dev.Flush(lineStart, line)
		// Advance pos past every entry within this flushed line, handling
		// ring wraparound (entries in one line are contiguous positions).
		for pos < p.tail && p.ringSlotOff(pos) >= lineStart && p.ringSlotOff(pos) < lineEnd {
			pos++
		}
		p.flushFrom = pos
	}
}

// Checkpoint writes the DRAM bump/head/tail into the parity slots for the
// given epoch and flushes the ring and control line. A parity slot that
// already holds those values (an epoch that allocated and freed nothing in
// this pool since the same parity's last checkpoint) is durable as it is,
// so it is neither stored nor written back. The caller issues the fence
// (one fence covers all pools), then calls Checkpointed. Under a
// pipelined commit the committer must call Checkpoint before the owner core
// enters the next epoch's init phase for this pool (the engine's per-pool
// staging token), so the values read here are still end-of-epoch values.
func (p *Pool) Checkpoint(epoch uint64) {
	p.FlushRing()
	par := int64(epoch % 2)
	p.stagedHead, p.stagedTail = p.head, p.tail
	if vals := [3]int64{p.bump, p.head, p.tail}; p.ctl[par] != vals {
		p.dev.Store64(p.ctlOff+ctlBump0+par*8, uint64(p.bump))
		p.dev.Store64(p.ctlOff+ctlHead0+par*8, uint64(p.head))
		p.dev.Store64(p.ctlOff+ctlTail0+par*8, uint64(p.tail))
		p.dev.Flush(p.ctlOff, line)
		p.ctl[par] = vals
	}
}

// Checkpointed commits the checkpoint barriers after the caller's fence
// made the epoch durable: entries freed last epoch become allocatable. It
// publishes the values Checkpoint staged, which under a pipelined commit
// may trail the live offsets by the next epoch's own frees.
func (p *Pool) Checkpointed() {
	p.headCkpt.Store(p.stagedHead)
	p.tailCkpt.Store(p.stagedTail)
}

// Recover restores the DRAM state from the checkpoint of ckptEpoch and,
// when adoptGC is set, adopts the crashed epoch's (ckptEpoch+1's) major-GC
// frees by scanning the ring past the checkpointed tail while entries carry
// a valid GC stamp for that epoch. Those frees are non-revertible: they
// came from phase 1 of major GC, which fences them durable before phase 2
// rewrites any row, so
//
//   - if any collected row landed in NVMM, the fence preceding phase 2 has
//     completed and every GC entry is durable — the scan adopts them all
//     and no freed slot leaks;
//   - if the crash hit before that fence, entries may have landed partially
//     (cache evictions), but then no row was collected: the adopted prefix
//     is a subset of frees the replayed GC re-issues, and the returned
//     duplicate-suppression set prevents the double free.
//
// Both arms assume the crashed epoch is REPLAYED, which is why the caller
// gates adoption: adoptGC must be set only when the crashed epoch's logged
// inputs are durable. When they are not, the epoch's single init fence —
// which orders the input log before any GC phase-2 rewrite — cannot have
// completed, so no row was collected, every queued row still references its
// stale slot, and the epoch's landed entries must vanish with the rest of
// the epoch (they are overwritten when the ring tail advances again).
// Adopting them without the replay's re-issued collection would free slots
// that live rows still point to.
//
// Transaction frees ('T' stamps, appended only after the GC phase of the
// epoch) and stale bytes from earlier epochs or earlier ring wraps fail the
// stamp check and stop the scan. It returns the offsets freed
// non-revertibly in the crashed epoch, which recovery uses as the
// duplicate-suppression set when it re-runs major GC.
func (p *Pool) Recover(ckptEpoch uint64, adoptGC bool) []int64 {
	par := int64(ckptEpoch % 2)
	p.bump = int64(p.dev.Load64(p.ctlOff + ctlBump0 + par*8))
	p.head = int64(p.dev.Load64(p.ctlOff + ctlHead0 + par*8))
	p.tail = int64(p.dev.Load64(p.ctlOff + ctlTail0 + par*8))
	ckptTail := p.tail
	p.ctl = unknownCtl
	p.ctl[par] = [3]int64{p.bump, p.head, ckptTail}
	var gcFrees []int64
	if adoptGC {
		for pos := ckptTail; pos-ckptTail < p.ringCap; pos++ {
			slot := p.ringSlotOff(pos)
			off := int64(p.dev.Load64(slot))
			if p.dev.Load64(slot+8) != entryStamp(entryGC, pos, ckptEpoch+1, off) {
				break
			}
			gcFrees = append(gcFrees, off)
		}
	}
	p.tail = ckptTail + int64(len(gcFrees))
	p.headCkpt.Store(p.head)
	// Invariant 2 uses the checkpointed tail, not the adopted tail: slots
	// freed by the crashed epoch's GC must not be reallocated while that
	// epoch is replayed.
	p.tailCkpt.Store(ckptTail)
	p.flushFrom = p.tail
	return gcFrees
}

// FreeSet returns the set of slot offsets currently on the free list
// (between head and tail). Recovery uses it to skip free slots while
// scanning the bump region for live rows.
func (p *Pool) FreeSet() map[int64]struct{} {
	s := make(map[int64]struct{}, p.tail-p.head)
	for pos := p.head; pos < p.tail; pos++ {
		s[int64(p.dev.Load64(p.ringSlotOff(pos)))] = struct{}{}
	}
	return s
}

// FreeList returns the free-list entries in ring order, head to tail,
// including duplicates. Invariant checkers use it to detect double frees,
// which FreeSet's map form would silently collapse.
func (p *Pool) FreeList() []int64 {
	l := make([]int64, 0, p.tail-p.head)
	for pos := p.head; pos < p.tail; pos++ {
		l = append(l, int64(p.dev.Load64(p.ringSlotOff(pos))))
	}
	return l
}
