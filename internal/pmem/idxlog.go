package pmem

import (
	"encoding/binary"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// IndexEntry is one persistent index-journal record.
type IndexEntry struct {
	// Kind is IdxPut, IdxDel, or IdxGC.
	Kind uint8
	// Table/Key identify the row.
	Table uint32
	Key   uint64
	// RowOff is the persistent row offset (IdxPut and IdxGC).
	RowOff int64
}

// Index-journal entry kinds.
const (
	// IdxPut maps a key to a persistent row.
	IdxPut uint8 = 1
	// IdxDel removes a key.
	IdxDel uint8 = 2
	// IdxGC marks a row as pending major collection in the next epoch.
	IdxGC uint8 = 3
)

const (
	idxEntrySize = 21 // kind(1) + table(4) + key(8) + rowOff(8)
	idxBlockHdr  = 24 // epoch(8) + count(8) + checksum(8)

	// Journal control line fields.
	idxCtlOffEven  = 0  // writeOff, even-epoch checkpoint
	idxCtlOffOdd   = 8  // writeOff, odd-epoch checkpoint
	idxCtlOverflow = 16 // sticky overflow flag
)

// IndexLog is the persistent index journal (paper §7 extension): every
// epoch's index deltas — row creations, deletions, and the next epoch's
// major-GC work list — are appended as one checksummed block, and the
// journal's write offset is checkpointed with the same dual-slot parity
// scheme as the allocator pools. Recovery replays the journal instead of
// scanning every persistent row; any validation failure falls back to the
// scan, so the journal is strictly an accelerator.
type IndexLog struct {
	dev  nvm.Tagged
	base int64 // region start (control line)
	size int64 // region size

	writeOff int64 // DRAM append position (bytes from base)
	overflow bool
}

// NewIndexLog returns the journal for a formatted device, or nil when the
// layout has no journal region.
func NewIndexLog(dev *nvm.Device, l Layout) *IndexLog {
	if l.IndexLogBytes == 0 {
		return nil
	}
	return &IndexLog{dev: dev.Tag(obs.CauseIdxJournal), base: l.idxLogOff, size: alignUp(l.IndexLogBytes), writeOff: line}
}

// blockBytes returns the encoded size of a block with n entries.
func blockBytes(n int) int64 { return idxBlockHdr + int64(n)*idxEntrySize }

// Remaining returns the bytes left before the journal overflows.
func (il *IndexLog) Remaining() int64 { return il.size - il.writeOff }

// Fits reports whether a block of n entries can be appended now. The
// engine decides at checkpoint capture — before handing the block to its
// commit, which may run in the background — whether the append can run in
// the commit or compaction (which walks the live index) must run first.
func (il *IndexLog) Fits(n int) bool {
	return !il.overflow && blockBytes(n) <= il.Remaining()
}

// Overflowed reports whether the journal gave up; recovery must scan.
func (il *IndexLog) Overflowed() bool { return il.overflow }

// FNV-1a constants for block checksums.
const (
	idxFnvOffset = uint64(14695981039346656037)
	idxFnvPrime  = uint64(1099511628211)
)

// idxChecksum folds a block's payload into its checksum eight bytes at a
// time (FNV-1a over little-endian words, the tail byte by byte). Recovery
// checks every block before it trusts the journal, and byte-wise folding
// made that check the larger part of reading the journal back. Every fold
// step is a bijection, so a block that differs in any one word still fails.
func idxChecksum(epoch uint64, payload []byte) uint64 {
	h := idxFnvOffset ^ (epoch * 0x9E3779B97F4A7C15)
	for len(payload) >= 8 {
		h ^= binary.LittleEndian.Uint64(payload)
		h *= idxFnvPrime
		payload = payload[8:]
	}
	for _, b := range payload {
		h ^= uint64(b)
		h *= idxFnvPrime
	}
	return h
}

func encodeEntries(entries []IndexEntry) []byte {
	buf := make([]byte, 0, len(entries)*idxEntrySize)
	for _, e := range entries {
		buf = append(buf, e.Kind)
		buf = binary.LittleEndian.AppendUint32(buf, e.Table)
		buf = binary.LittleEndian.AppendUint64(buf, e.Key)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.RowOff))
	}
	return buf
}

// AppendEpoch writes one epoch's delta block and flushes it. Durability
// comes from the caller's checkpoint fence. If the block does not fit, the
// journal sets its sticky overflow flag: the engine may first try
// ResetForSnapshot to compact.
func (il *IndexLog) AppendEpoch(epoch uint64, entries []IndexEntry) (ok bool) {
	if il.overflow {
		return false
	}
	need := blockBytes(len(entries))
	if need > il.Remaining() {
		il.overflow = true
		return false
	}
	payload := encodeEntries(entries)
	var hdr [idxBlockHdr]byte
	binary.LittleEndian.PutUint64(hdr[0:], epoch)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(entries)))
	binary.LittleEndian.PutUint64(hdr[16:], idxChecksum(epoch, payload))
	off := il.base + il.writeOff
	// One vectored write for the whole block, payload before header (a torn
	// append never leaves a checksummed header over garbage entries), with
	// the flush batched into the same call.
	fields := []nvm.FieldWrite{{Off: off, Data: hdr[:]}}
	if len(payload) > 0 {
		fields = []nvm.FieldWrite{
			{Off: off + idxBlockHdr, Data: payload},
			{Off: off, Data: hdr[:]},
		}
	}
	il.dev.WriteFields(fields, []nvm.Range{{Off: off, N: need}})
	il.writeOff += need
	return true
}

// ResetForSnapshot rewinds the journal so the next AppendEpoch writes a
// full index snapshot at the region start, logically discarding all prior
// blocks. The rewind only becomes durable at the next checkpoint; a crash
// before that leaves the old write offset pointing at partially overwritten
// blocks, which recovery detects by checksum and handles by falling back to
// the row scan.
func (il *IndexLog) ResetForSnapshot() {
	il.writeOff = line
	// The rewind logically discards every prior block, so a delta that
	// failed to fit no longer counts against the journal: clear the overflow
	// flag and let the snapshot append re-set it if even the snapshot does
	// not fit. Without this the engine's compaction could never succeed —
	// the failed delta append had already latched the sticky flag.
	il.overflow = false
}

// Checkpoint persists the write offset into the epoch-parity slot and the
// overflow flag; the caller fences.
func (il *IndexLog) Checkpoint(epoch uint64) {
	par := int64(epoch % 2)
	il.dev.Store64(il.base+idxCtlOffEven+par*8, uint64(il.writeOff))
	ov := uint64(0)
	if il.overflow {
		ov = 1
	}
	il.dev.Store64(il.base+idxCtlOverflow, ov)
	il.dev.Flush(il.base, line)
}

// Recover restores the journal state from the checkpoint of ckptEpoch and
// replays all valid blocks in order, invoking apply for each entry. It
// returns false — and the caller must fall back to the row scan — when the
// journal overflowed or any block fails validation.
func (il *IndexLog) Recover(ckptEpoch uint64, apply func(epoch uint64, e IndexEntry)) bool {
	// Post-crash journal replay is recovery traffic, not journal-append
	// traffic, for attribution purposes.
	rd := il.dev.Retag(obs.CauseRecovery)
	par := int64(ckptEpoch % 2)
	il.writeOff = int64(rd.Load64(il.base + idxCtlOffEven + par*8))
	il.overflow = rd.Load64(il.base+idxCtlOverflow) != 0
	if il.overflow {
		return false
	}
	if il.writeOff == 0 {
		// Never checkpointed with a journal. Valid only for a fresh device;
		// a device with committed epochs but no journal history (journaling
		// enabled later) must fall back to the scan.
		il.writeOff = line
		return ckptEpoch == 0
	}
	if il.writeOff < line || il.writeOff > il.size {
		return false
	}
	pos := line
	var lastEpoch uint64
	for pos < il.writeOff {
		if il.writeOff-pos < idxBlockHdr {
			return false
		}
		var hdr [idxBlockHdr]byte
		rd.ReadAt(hdr[:], il.base+pos)
		epoch := binary.LittleEndian.Uint64(hdr[0:])
		count := binary.LittleEndian.Uint64(hdr[8:])
		sum := binary.LittleEndian.Uint64(hdr[16:])
		need := blockBytes(int(count))
		if epoch == 0 || epoch > ckptEpoch || epoch < lastEpoch || pos+need > il.writeOff {
			return false
		}
		// A read-only view of the block, charged like ReadAt: recovery
		// decodes every entry out of it, so copying it first is garbage.
		payload := rd.Slice(il.base+pos+idxBlockHdr, int64(count)*idxEntrySize)
		if idxChecksum(epoch, payload) != sum {
			return false
		}
		for i := uint64(0); i < count; i++ {
			p := payload[i*idxEntrySize:]
			apply(epoch, IndexEntry{
				Kind:   p[0],
				Table:  binary.LittleEndian.Uint32(p[1:]),
				Key:    binary.LittleEndian.Uint64(p[5:]),
				RowOff: int64(binary.LittleEndian.Uint64(p[13:])),
			})
		}
		lastEpoch = epoch
		pos += need
	}
	// Every committed epoch appends a block (possibly empty), so a journal
	// whose final block is older than the checkpoint is missing history
	// (e.g. journaling was disabled for some runs) and cannot be trusted.
	if ckptEpoch > 0 && lastEpoch != ckptEpoch {
		return false
	}
	return true
}
