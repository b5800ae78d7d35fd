package core

import (
	"sync/atomic"

	"nvcaracal/internal/index"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// Persistent row layout (fixed size, default 256 bytes; paper §5.3). The
// header and both version descriptors share the first cache line so the
// dual-version update protocol persists in one line write-back:
//
//	 0  table   uint32
//	 4  (reserved)
//	 8  key     uint64
//	16  v1.sid  uint64   ── the older version; invariant v1.sid < v2.sid
//	24  v1.ptr  uint64      (when both are non-zero)
//	32  v1.size uint32
//	40  v2.sid  uint64   ── the newer version
//	48  v2.ptr  uint64
//	56  v2.size uint32
//	64  inline heap: two slots of (rowSize-64)/2 bytes each
//
// ptr encoding: 0 = no value; ptrInlineA / ptrInlineB = the value lives in
// the corresponding inline slot; any other value = absolute device offset
// of a persistent value-pool slot.
const (
	rowHdrTable = 0
	rowHdrKey   = 8
	rowV1       = 16
	rowV2       = 40
	verSID      = 0
	verPtr      = 8
	verSize     = 16
	rowInline   = 64

	ptrNone    = uint64(0)
	ptrInlineA = uint64(1)
	ptrInlineB = uint64(2)
)

// nvLineSize aliases the device line size for write-amplification
// accounting (the persist-every-write counterfactual in exec.go).
const nvLineSize = nvm.LineSize

// version is the in-DRAM decoding of one persistent version descriptor.
type version struct {
	sid  uint64
	ptr  uint64
	size uint32
}

func (v version) isNull() bool   { return v.sid == 0 }
func (v version) isInline() bool { return v.ptr == ptrInlineA || v.ptr == ptrInlineB }

// rowRef is a handle to one persistent row on the device. The handle
// carries the attribution cause of the access path that built it (see
// DB.rowRefTag); all device traffic it issues is credited there.
type rowRef struct {
	dev     nvm.Tagged
	off     int64
	rowSize int64
}

// retag returns the same row handle crediting a different cause — used
// where one call path does work on behalf of another (persistFinal's
// inline minor GC).
func (r rowRef) retag(c obs.Cause) rowRef {
	r.dev = r.dev.Retag(c)
	return r
}

// inlineHalf returns the size of each of the two inline slots.
func (r rowRef) inlineHalf() int64 { return (r.rowSize - rowInline) / 2 }

// inlineOff returns the device offset of inline slot ptrInlineA/B.
func (r rowRef) inlineOff(ptr uint64) int64 {
	if ptr == ptrInlineA {
		return r.off + rowInline
	}
	return r.off + rowInline + r.inlineHalf()
}

// valueOff resolves a version's data location on the device.
func (r rowRef) valueOff(v version) int64 {
	if v.isInline() {
		return r.inlineOff(v.ptr)
	}
	return int64(v.ptr)
}

// writeHeader initializes a freshly allocated row: table, key, and both
// version descriptors cleared (the slot may be recycled and hold stale
// descriptors). One line store and no write-back: the row's last header
// store of the epoch — its final write, or the drop of an insert that never
// got one — writes the line back, and recovery never reads a row the
// crashed epoch allocated (the scan stops at the checkpointed bump and
// skips free-list slots).
func (r rowRef) writeHeader(table uint32, key uint64) {
	var line [rowInline]byte
	putU32(line[rowHdrTable:], table)
	putU64(line[rowHdrKey:], key)
	r.dev.WriteAt(line[:], r.off)
}

func (r rowRef) verOff(which int) int64 {
	if which == 1 {
		return r.off + rowV1
	}
	return r.off + rowV2
}

// rowHeader is the in-DRAM decoding of a row's header line.
type rowHeader struct {
	table  uint32
	key    uint64
	v1, v2 version
}

// header reads the row's header line with one device read and decodes it.
// It is the only way the engine reads a row's table, key or descriptors:
// the layout puts them all in one line so that a visit to a row costs one
// line of NVMM traffic, and reading field by field would charge that line
// once per field.
func (r rowRef) header() rowHeader {
	var line [rowInline]byte
	r.dev.ReadAt(line[:], r.off)
	return rowHeader{
		table: getU32(line[rowHdrTable:]),
		key:   getU64(line[rowHdrKey:]),
		v1:    decodeVersion(line[rowV1:]),
		v2:    decodeVersion(line[rowV2:]),
	}
}

func decodeVersion(b []byte) version {
	return version{sid: getU64(b[verSID:]), ptr: getU64(b[verPtr:]), size: getU32(b[verSize:])}
}

// indexKey returns the index key the header names.
func (h rowHeader) indexKey() index.Key { return index.Key{Table: h.table, ID: h.key} }

// latest returns the most recent version: v2 if present and not written by
// epoch skip, else v1, which may itself be null for a row inserted but
// never written. skip 0 matches no epoch.
func (h rowHeader) latest(skip uint64) version {
	if !h.v2.isNull() && SIDEpoch(h.v2.sid) != skip {
		return h.v2
	}
	return h.v1
}

// persistOrderBroken, when set, reverses the SID-before-pointer store
// order of writeVersion and writeFinal: pointer and size are stored first,
// the SID last. It exists solely so the crash-consistency model checker
// can demonstrate that the §4.5 ordering is load-bearing — with the order
// broken, a torn descriptor write-back can pair an old SID with a new
// pointer, recovery misclassifies the version, and the checker must
// surface an invariant violation. Never set outside tests and nvtorture's
// -break-persist-order mode.
var persistOrderBroken atomic.Bool

// SetPersistOrderBroken toggles the deliberately broken persist ordering
// (see persistOrderBroken). For crash-consistency testing only.
func SetPersistOrderBroken(on bool) { persistOrderBroken.Store(on) }

// versionFields builds the descriptor field stores in protocol order:
// SID before pointer (§4.5), unless the broken-order test hook is armed.
func versionFields(off int64, sid, ptr, size []byte) []nvm.FieldWrite {
	if persistOrderBroken.Load() {
		return []nvm.FieldWrite{
			{Off: off + verPtr, Data: ptr},
			{Off: off + verSize, Data: size},
			{Off: off + verSID, Data: sid},
		}
	}
	return []nvm.FieldWrite{
		{Off: off + verSID, Data: sid},
		{Off: off + verPtr, Data: ptr},
		{Off: off + verSize, Data: size},
	}
}

// storeVersion stores a descriptor with the crash-consistency ordering of
// §4.5: the SID is stored before the pointer, so a partial write-back is
// detectable by comparing SIDs. The three field stores and the given
// flushes go through one vectored device call; WriteFields preserves field
// store order, so the SID-first protocol holds. A caller passes no flushes
// when a later store to the header line follows in the same epoch with no
// fence between: that store's write-back supersedes this one, which would
// order nothing.
func (r rowRef) storeVersion(which int, v version, flushes []nvm.Range) {
	off := r.verOff(which)
	var sid, ptr [8]byte
	var size [4]byte
	putU64(sid[:], v.sid)
	putU64(ptr[:], v.ptr)
	putU32(size[:], v.size)
	r.dev.WriteFields(versionFields(off, sid[:], ptr[:], size[:]), flushes)
}

// writeVersion is storeVersion followed by the header line's write-back;
// the fence comes from the epoch boundary (or replay makes the outcome
// irrelevant).
func (r rowRef) writeVersion(which int, v version) {
	r.storeVersion(which, v, []nvm.Range{{Off: r.off, N: rowInline}})
}

// resetVersion nulls a descriptor, SID first (repair case 2 relies on
// seeing sid==0 with a leftover pointer).
func (r rowRef) resetVersion(which int) {
	r.writeVersion(which, version{})
}

// readValue copies a version's data out of the device.
func (r rowRef) readValue(v version) []byte {
	buf := make([]byte, v.size)
	if v.size > 0 {
		r.dev.ReadAt(buf, r.valueOff(v))
	}
	return buf
}

// readValueInto reads a version's data into dst (which must be size bytes).
func (r rowRef) readValueInto(v version, dst []byte) {
	if v.size > 0 {
		r.dev.ReadAt(dst[:v.size], r.valueOff(v))
	}
}

// writeFinal is the vectored hot path of persistFinal: the value bytes, the
// v2 descriptor fields, and both flushes go to the device as one call. The
// value lines (inline heap or value pool) are disjoint from the descriptor
// line, and the field order keeps every individual store and flush exactly
// where an unvectored sequence (store and flush the value, then
// writeVersion) would put it, so access counters, chaos-eviction rolls, and
// fail-point positions match it — the call only drops the per-operation
// device round trips. Its header flush is the row's one header write-back
// of the epoch: the insert's header and persistFinal's v2→v1 move are
// stored without one.
func (r rowRef) writeFinal(sid uint64, ptr uint64, data []byte) {
	off := r.verOff(2)
	var sidB, ptrB [8]byte
	var sizeB [4]byte
	putU64(sidB[:], sid)
	putU64(ptrB[:], ptr)
	putU32(sizeB[:], uint32(len(data)))
	fields := make([]nvm.FieldWrite, 0, 4)
	flushes := make([]nvm.Range, 0, 2)
	if len(data) > 0 {
		valOff := r.valueOff(version{ptr: ptr, size: uint32(len(data))})
		fields = append(fields, nvm.FieldWrite{Off: valOff, Data: data})
		flushes = append(flushes, nvm.Range{Off: valOff, N: int64(len(data))})
	}
	fields = append(fields, versionFields(off, sidB[:], ptrB[:], sizeB[:])...)
	flushes = append(flushes, nvm.Range{Off: r.off, N: rowInline})
	r.dev.WriteFields(fields, flushes)
}

// freeInlineSlot picks the inline slot not referenced by v (or slot A when
// v is not inline), i.e. the slot a new inline version may safely occupy.
func freeInlineSlot(v version) uint64 {
	if v.ptr == ptrInlineA {
		return ptrInlineB
	}
	return ptrInlineA
}

// repair fixes torn version descriptors after a crash, implementing the
// three situations of §4.5. h is the row's header as read before the call;
// crashedEpoch is the epoch that did not checkpoint. It returns the header
// as repaired, and true if the row was modified.
//
//	Case 1: GC was collecting the row — matching sids mean the copy of v2
//	        into v1 at least began — so complete the whole collection:
//	        finish the copy if it tore, then reset v2. Leaving v2 in place
//	        (as repair once did) is unsound: recovery re-queues the row,
//	        and the redone collection frees the pointer now shared by both
//	        versions — the row's only value — which a later epoch then
//	        reallocates out from under it.
//	Case 2: GC was resetting v2; sid is null but the pointer is not →
//	        finish the reset.
//	Case 3: v2.sid belongs to the crashed epoch → left as is; the replayed
//	        final write detects the match and overwrites the descriptor.
func (r rowRef) repair(h rowHeader, crashedEpoch uint64) (rowHeader, bool) {
	v1, v2 := h.v1, h.v2
	if !v1.isNull() && !v2.isNull() && v1.sid == v2.sid && SIDEpoch(v1.sid) != crashedEpoch {
		if v1 != v2 {
			r.writeVersion(1, v2)
		}
		r.resetVersion(2)
		h.v1, h.v2 = v2, version{}
		return h, true
	}
	if v2.isNull() && (v2.ptr != 0 || v2.size != 0) {
		r.resetVersion(2)
		h.v2 = version{}
		return h, true
	}
	return h, false
}

// revertCrashedVersion implements the TPC-C recovery variant (§6.2.3):
// if v2 was written during the crashed epoch, reset it so the replay —
// which may assign different keys — starts from the clean checkpoint.
// Returns true if a version was reverted.
func (r rowRef) revertCrashedVersion(crashedEpoch uint64) bool {
	v2 := r.header().v2
	if !v2.isNull() && SIDEpoch(v2.sid) == crashedEpoch {
		r.resetVersion(2)
		return true
	}
	return false
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
