package core

import (
	"fmt"

	"nvcaracal/internal/index"
)

// This file exports the two oracles of the crash-consistency model checker
// (internal/crashcheck): StateDigest summarizes the committed logical state
// so a recovered database can be compared against a crash-free reference
// run, and CheckInvariants verifies the structural invariants — index/row
// agreement, dual-version sanity, and allocator accounting — that hold
// between epochs regardless of workload.
//
// Both must be called between epochs (or right after Recover returns),
// with no epoch in flight.

// fnv64a is the 64-bit FNV-1a incremental hash.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

func (h *fnv64a) bytes(b []byte) {
	x := *h
	for _, c := range b {
		x = (x ^ fnv64a(c)) * fnvPrime64
	}
	*h = x
}

func (h *fnv64a) u64(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x = (x ^ fnv64a(byte(v))) * fnvPrime64
		v >>= 8
	}
	*h = x
}

func (h *fnv64a) u32(v uint32) {
	x := *h
	for i := 0; i < 4; i++ {
		x = (x ^ fnv64a(byte(v))) * fnvPrime64
		v >>= 8
	}
	*h = x
}

// StateDigest returns a digest of the committed state: every live row's
// key, version descriptors (SIDs and sizes), and value bytes, plus the
// persistent counters and per-pool allocation totals. Two databases that
// executed the same epochs — one crash-free, one crashed and recovered —
// must produce equal digests.
//
// Rows are combined order-independently (the index iterates in hash
// order), and value-slot offsets are deliberately excluded: Aria's commit
// phase assigns slots in map-iteration order, so offsets vary run to run
// while the logical state, the descriptor SIDs, and every per-pool total
// stay deterministic.
func (db *DB) StateDigest() uint64 {
	h := fnvOffset64
	db.logicalDigest(&h)
	for c := range db.rowPools {
		h.u64(uint64(db.rowPools[c].Bump()))
		h.u64(uint64(db.rowPools[c].FreeCount()))
	}
	for k := range db.valPools {
		for c := range db.valPools[k] {
			h.u64(uint64(db.valPools[k][c].Bump()))
			h.u64(uint64(db.valPools[k][c].FreeCount()))
		}
	}
	return uint64(h)
}

// LogicalDigest is StateDigest without the per-pool allocation totals:
// rows, version descriptors, value bytes, and persistent counters only.
//
// Under the epoch pipeline (Options.Pipeline) the totals are not
// replay-deterministic: freed ring slots become adoptable only once the
// previous epoch's checkpoint fence publishes the ring tail, so whether an
// overlapped allocation adopts a slot or bumps depends on how the
// committer interleaves with the front. The logical state is unaffected —
// crash checkers comparing pipelined runs digest with this and lean on
// CheckInvariants for allocator accounting.
func (db *DB) LogicalDigest() uint64 {
	h := fnvOffset64
	db.logicalDigest(&h)
	return uint64(h)
}

// logicalDigest folds the placement-independent state into h: every live
// row combined order-independently, then the persistent counters.
func (db *DB) logicalDigest(h *fnv64a) {
	var sum, xor, count uint64
	db.idx.Range(func(k index.Key, rs *rowState) bool {
		r := db.rowRef(rs.nvOff)
		h := r.header()
		rh := fnvOffset64
		rh.u32(k.Table)
		rh.u64(k.ID)
		for _, v := range [2]version{h.v1, h.v2} {
			rh.u64(v.sid)
			rh.u32(v.size)
			if !v.isNull() && v.size > 0 {
				rh.bytes(r.readValue(v))
			}
		}
		sum += uint64(rh)
		xor ^= uint64(rh)
		count++
		return true
	})
	h.u64(sum)
	h.u64(xor)
	h.u64(count)
	for i := range db.counters {
		h.u64(db.counters[i].Load())
	}
}

// CheckInvariants verifies the structural invariants of the between-epoch
// state and returns the first violation found:
//
//   - every free-list entry names a valid, unique slot (no double free);
//   - the index and a full row scan agree exactly: every live row slot is
//     indexed under its own header key, and every index entry resolves to
//     a live slot (no leaks, no dangling entries);
//   - dual-version descriptors are sane: v1 precedes v2, a completed
//     collection leaves no duplicate descriptor pair, inline versions
//     occupy distinct slots, and sizes fit their slots;
//   - every allocated value slot is referenced by exactly one version of
//     one live row, and no version references a free or unallocated slot
//     (no value leaks, no dangling pointers).
func (db *DB) CheckInvariants() error {
	// Row free lists: deletions free a slot into the executing core's pool,
	// so validity and duplicates are checked across the union.
	rowFree := make(map[int64]struct{})
	for c := range db.rowPools {
		for _, off := range db.rowPools[c].FreeList() {
			if err := db.checkRowSlot(off); err != nil {
				return fmt.Errorf("row free list (core %d): %w", c, err)
			}
			if _, dup := rowFree[off]; dup {
				return fmt.Errorf("row slot %d double-freed", off)
			}
			rowFree[off] = struct{}{}
		}
	}

	// Value free lists, same discipline. valFree doubles as the "currently
	// free" set for the dangling-pointer check below.
	valFree := make(map[int64]struct{})
	for k := range db.valPools {
		for c := range db.valPools[k] {
			for _, off := range db.valPools[k][c].FreeList() {
				if err := db.checkValSlot(off); err != nil {
					return fmt.Errorf("value free list (class %d, core %d): %w", k, c, err)
				}
				if _, dup := valFree[off]; dup {
					return fmt.Errorf("value slot %d double-freed", off)
				}
				valFree[off] = struct{}{}
			}
		}
	}

	// refs counts, per allocated value slot, how many row versions
	// reference it; it must end at exactly one for every slot.
	refs := make(map[int64]int)
	for k := range db.valPools {
		for c := range db.valPools[k] {
			pool := db.valPools[k][c]
			base := pool.DataBase()
			for i := int64(0); i < pool.Bump(); i++ {
				off := base + i*pool.SlotSize()
				if _, free := valFree[off]; !free {
					refs[off] = 0
				}
			}
		}
	}

	// Full row scan against the index.
	live := make(map[int64]index.Key)
	for c := range db.rowPools {
		pool := db.rowPools[c]
		base := db.layout.RowDataOff(c)
		for i := int64(0); i < pool.Bump(); i++ {
			off := base + i*db.layout.RowSize
			if _, free := rowFree[off]; free {
				continue
			}
			r := db.rowRef(off)
			h := r.header()
			key := h.indexKey()
			rs, ok := db.idx.Get(key)
			if !ok {
				return fmt.Errorf("row leak: live slot %d (key %v) not in index", off, key)
			}
			if rs.nvOff != off {
				return fmt.Errorf("duplicate key %v: index maps it to slot %d but a live row holds it at %d",
					key, rs.nvOff, off)
			}
			live[off] = key
			if err := db.checkRowVersions(r, h, key, refs, valFree); err != nil {
				return err
			}
		}
	}
	var idxErr error
	db.idx.Range(func(k index.Key, rs *rowState) bool {
		key, ok := live[rs.nvOff]
		if !ok {
			idxErr = fmt.Errorf("dangling index entry: key %v points at slot %d which is free or unallocated", k, rs.nvOff)
			return false
		}
		if key != k {
			idxErr = fmt.Errorf("index entry %v points at slot %d whose header says %v", k, rs.nvOff, key)
			return false
		}
		return true
	})
	if idxErr != nil {
		return idxErr
	}

	for off, n := range refs {
		switch {
		case n == 0:
			return fmt.Errorf("value leak: slot %d is allocated but no live row references it", off)
		case n > 1:
			return fmt.Errorf("value slot %d referenced by %d versions (aliasing)", off, n)
		}
	}
	return nil
}

// checkRowVersions validates one live row's descriptor pair and records
// its value references in refs.
func (db *DB) checkRowVersions(r rowRef, h rowHeader, key index.Key, refs map[int64]int, valFree map[int64]struct{}) error {
	v1, v2 := h.v1, h.v2
	if !v1.isNull() && !v2.isNull() {
		if v1.sid >= v2.sid {
			return fmt.Errorf("row %v: version order violated: v1.sid=%d >= v2.sid=%d (an interrupted collection was not completed)",
				key, v1.sid, v2.sid)
		}
		if v1.isInline() && v2.isInline() && v1.ptr == v2.ptr {
			return fmt.Errorf("row %v: both versions occupy inline slot %d", key, v1.ptr)
		}
	}
	for i, v := range [2]version{v1, v2} {
		which := i + 1
		if v.isNull() {
			if v.ptr != 0 || v.size != 0 {
				return fmt.Errorf("row %v: null v%d has leftover ptr=%d size=%d (torn reset not repaired)",
					key, which, v.ptr, v.size)
			}
			continue
		}
		if v.isInline() {
			if int64(v.size) > r.inlineHalf() {
				return fmt.Errorf("row %v: v%d inline size %d exceeds slot %d", key, which, v.size, r.inlineHalf())
			}
			continue
		}
		if v.ptr == ptrNone {
			continue // explicit empty value (e.g. zero-length write)
		}
		off := int64(v.ptr)
		if err := db.checkValSlot(off); err != nil {
			return fmt.Errorf("row %v v%d: %w", key, which, err)
		}
		if _, free := valFree[off]; free {
			return fmt.Errorf("row %v v%d: dangling pointer: references freed value slot %d (use-after-free)",
				key, which, off)
		}
		n, allocated := refs[off]
		if !allocated {
			return fmt.Errorf("row %v v%d: references unallocated value slot %d (beyond bump)", key, which, off)
		}
		refs[off] = n + 1
		k := db.layout.ValueClassOfOffset(off)
		if pool := db.valPools[k][0]; int64(v.size) > pool.SlotSize() {
			return fmt.Errorf("row %v v%d: size %d exceeds class slot %d", key, which, v.size, pool.SlotSize())
		}
	}
	return nil
}

// checkRowSlot validates that off names a row slot inside some core's
// allocated (bump) region, slot-aligned.
func (db *DB) checkRowSlot(off int64) error {
	for c := range db.rowPools {
		base := db.layout.RowDataOff(c)
		end := base + db.rowPools[c].Bump()*db.layout.RowSize
		if off >= base && off < end {
			if (off-base)%db.layout.RowSize != 0 {
				return fmt.Errorf("row offset %d misaligned in core %d region", off, c)
			}
			return nil
		}
	}
	return fmt.Errorf("row offset %d outside every allocated row region", off)
}

// checkValSlot validates that off names a value slot inside some pool's
// allocated (bump) region, slot-aligned.
func (db *DB) checkValSlot(off int64) error {
	k := db.layout.ValueClassOfOffset(off)
	if k < 0 {
		return fmt.Errorf("value offset %d outside every value region", off)
	}
	for c := range db.valPools[k] {
		pool := db.valPools[k][c]
		base := pool.DataBase()
		end := base + pool.Bump()*pool.SlotSize()
		if off >= base && off < end {
			if (off-base)%pool.SlotSize() != 0 {
				return fmt.Errorf("value offset %d misaligned in class %d core %d region", off, k, c)
			}
			return nil
		}
	}
	return fmt.Errorf("value offset %d outside every allocated value region of class %d", off, k)
}
