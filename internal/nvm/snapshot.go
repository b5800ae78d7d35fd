package nvm

import (
	"fmt"
	"time"

	"nvcaracal/internal/obs"
)

// Snapshot is a deep copy of a device's full simulation state: the three
// byte images, the per-line durability state words, the flushed-line
// journals, the per-cause access counters, the chaos-eviction PRNG, and
// the latency configuration. It is the restart mechanism of the
// crash-consistency model checker: capture one snapshot after the
// (expensive) workload prefix, then Restore before each explored crash
// point instead of re-running the prefix, or NewDevice a replica per
// worker so points are explored in parallel.
//
// Snapshot and Restore require the same quiescence as Crash: no accesses
// in flight.
type Snapshot struct {
	size    int64
	live    []byte
	durable []byte
	staging []byte
	state   []uint32

	journals [stripeCount][]int64

	cells [statStripes][obs.NumCauses]Stats

	chaosDenom int
	chaosState uint64
	failAfter  int64

	readLatency  time.Duration
	writeLatency time.Duration
	fenceLatency time.Duration
}

// Size returns the capacity of the snapshotted device in bytes.
func (s *Snapshot) Size() int64 { return s.size }

// Snapshot captures the device's complete state. The caller must ensure no
// accesses are in flight (the same contract as Crash).
func (d *Device) Snapshot() *Snapshot {
	d.fenceMu.Lock()
	defer d.fenceMu.Unlock()
	s := &Snapshot{
		size:         d.size,
		live:         append([]byte(nil), d.live...),
		durable:      append([]byte(nil), d.durable...),
		staging:      append([]byte(nil), d.staging...),
		state:        make([]uint32, len(d.state)),
		chaosDenom:   d.chaosDenom,
		chaosState:   d.chaosState.Load(),
		failAfter:    d.failAfter.Load(),
		readLatency:  d.readLatency,
		writeLatency: d.writeLatency,
		fenceLatency: d.fenceLatency,
	}
	for l := range d.state {
		s.state[l] = d.state[l].Load()
	}
	for i := range d.stripes {
		sp := &d.stripes[i]
		sp.mu.Lock()
		s.journals[i] = append([]int64(nil), sp.lines...)
		sp.mu.Unlock()
	}
	for i := range d.cells {
		for c := range d.cells[i] {
			d.cells[i][c].addTo(&s.cells[i][c])
		}
	}
	return s
}

// Restore rewinds the device to a previously captured snapshot, including
// images, durability state, journals, counters, chaos PRNG, and fail-point
// counter. Fence-mark traces are cleared. An attached obs.Attrib reads its
// per-cause counts from the device, so they rewind too. The snapshot must
// come from a device of the same size. The caller must ensure no accesses
// are in flight.
func (d *Device) Restore(s *Snapshot) {
	if s.size != d.size {
		panic(fmt.Sprintf("nvm: restore of %d-byte snapshot onto %d-byte device", s.size, d.size))
	}
	d.fenceMu.Lock()
	defer d.fenceMu.Unlock()
	copy(d.live, s.live)
	copy(d.durable, s.durable)
	copy(d.staging, s.staging)
	for l := range d.state {
		d.state[l].Store(s.state[l])
	}
	var occupied uint64
	for i := range d.stripes {
		sp := &d.stripes[i]
		sp.mu.Lock()
		sp.lines = append(sp.lines[:0], s.journals[i]...)
		sp.spare = sp.spare[:0]
		sp.mu.Unlock()
		if len(sp.lines) > 0 {
			occupied |= 1 << i
		}
	}
	d.occupied.Store(occupied)
	for i := range d.cells {
		for c := range d.cells[i] {
			d.cells[i][c].store(s.cells[i][c])
		}
	}
	d.chaosDenom = s.chaosDenom
	d.chaosState.Store(s.chaosState)
	d.failAfter.Store(s.failAfter)
	d.fenceMarks = d.fenceMarks[:0]
}

// NewDevice builds an independent device replica from the snapshot. The
// replica carries the snapshot's latency and chaos configuration and is
// indistinguishable from the original at capture time; mutations of one
// never affect the other.
func (s *Snapshot) NewDevice() *Device {
	d := New(s.size)
	d.readLatency = s.readLatency
	d.writeLatency = s.writeLatency
	d.fenceLatency = s.fenceLatency
	d.Restore(s)
	return d
}

// TraceFences enables (or disables) fence-mark tracing. While enabled,
// every Fence appends the cumulative flushed-line count observed at the
// fence to an internal trace, so a crash-free rehearsal of a workload
// yields the persist-phase boundaries of its flush sequence — the
// positions the model checker's stratified sampler biases toward.
// Enabling clears any previous trace.
func (d *Device) TraceFences(on bool) {
	d.fenceMu.Lock()
	defer d.fenceMu.Unlock()
	d.traceFences = on
	if on {
		d.fenceMarks = d.fenceMarks[:0]
	}
}

// FenceMarks returns a copy of the fence trace: one cumulative flush count
// per Fence issued since tracing was enabled.
func (d *Device) FenceMarks() []int64 {
	d.fenceMu.Lock()
	defer d.fenceMu.Unlock()
	return append([]int64(nil), d.fenceMarks...)
}

// foldFlushes sums the flush counters over stripes and causes.
func (d *Device) foldFlushes() int64 {
	var n int64
	for i := range d.cells {
		for c := range d.cells[i] {
			n += d.cells[i][c].flushes.Load()
		}
	}
	return n
}
