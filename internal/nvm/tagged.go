package nvm

import "nvcaracal/internal/obs"

// Tagged is a context-free attributed view of a Device: a value pairing the
// device with the obs.Cause every access through it is credited to. Call
// sites that know why they touch NVMM (persisting a final version,
// appending the WAL, running GC) hold a Tagged instead of the raw *Device,
// and the device counts each access in that cause's cells (CauseCounts).
//
// Tagged is two words, copied by value, and allocates nothing: engines
// embed it in their per-access handles (core's rowRef) or construct it
// inline per call (wal). A Tagged access costs what the plain device
// access costs, which counts under CauseOther; Stats, durability state,
// and the latency model are identical either way.
type Tagged struct {
	d     *Device
	cause obs.Cause
}

// Tag returns an attributed view of the device crediting accesses to c.
func (d *Device) Tag(c obs.Cause) Tagged { return Tagged{d: d, cause: c} }

// Device returns the underlying device.
func (t Tagged) Device() *Device { return t.d }

// Cause returns the cause this view credits accesses to.
func (t Tagged) Cause() obs.Cause { return t.cause }

// Retag returns a view of the same device crediting a different cause.
func (t Tagged) Retag(c obs.Cause) Tagged { return Tagged{d: t.d, cause: c} }

// Size returns the device capacity in bytes.
func (t Tagged) Size() int64 { return t.d.Size() }

// ReadAt is Device.ReadAt attributed to the view's cause.
func (t Tagged) ReadAt(p []byte, off int64) { t.d.readAt(p, off, t.cause) }

// Slice is Device.Slice attributed to the view's cause.
func (t Tagged) Slice(off, n int64) []byte { return t.d.slice(off, n, t.cause) }

// WriteAt is Device.WriteAt attributed to the view's cause.
func (t Tagged) WriteAt(p []byte, off int64) { t.d.writeAt(p, off, t.cause) }

// Zero is Device.Zero attributed to the view's cause.
func (t Tagged) Zero(off, n int64) { t.d.zero(off, n, t.cause) }

// Load64 is Device.Load64 attributed to the view's cause.
func (t Tagged) Load64(off int64) uint64 { return t.d.load64(off, t.cause) }

// Store64 is Device.Store64 attributed to the view's cause.
func (t Tagged) Store64(off int64, v uint64) { t.d.store64(off, v, t.cause) }

// Load32 is Device.Load32 attributed to the view's cause.
func (t Tagged) Load32(off int64) uint32 { return t.d.load32(off, t.cause) }

// Store32 is Device.Store32 attributed to the view's cause.
func (t Tagged) Store32(off int64, v uint32) { t.d.store32(off, v, t.cause) }

// WriteFields is Device.WriteFields attributed to the view's cause.
func (t Tagged) WriteFields(fields []FieldWrite, flushes []Range) {
	t.d.writeFields(fields, flushes, t.cause)
}

// Flush is Device.Flush attributed to the view's cause.
func (t Tagged) Flush(off, n int64) { t.d.flush(off, n, t.cause) }

// Persist is Device.Persist attributed to the view's cause.
func (t Tagged) Persist(off, n int64) { t.d.persist(off, n, t.cause) }

// PersistRange is Device.PersistRange attributed to the view's cause.
func (t Tagged) PersistRange(ranges ...Range) { t.d.persistRange(t.cause, ranges...) }

// Fence is Device.Fence attributed to the view's cause. A fence drains
// previously issued write-backs from every cause at once, so the
// attribution records who *ordered* (paid for) the fence, not whose lines
// it happened to commit — which is exactly the ledger a fence diet needs.
func (t Tagged) Fence() { t.d.fence(t.cause) }
