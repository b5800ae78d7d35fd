package nvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refDevice is a naive reference model of the device's semantics: three
// full images and two flags per line, every transition done eagerly. A
// flush copies the line into staging; a fence copies every staged line
// into durable.
type refDevice struct {
	live, staging, durable []byte
	dirty, staged          []bool
	st                     Stats
	failAfter              int64
	chaosDenom             int
	chaos                  uint64
}

// errRefCrash is the model's fail-point signal, the counterpart of the
// device's ErrInjectedCrash panic.
type errRefCrash struct{}

func newRef(size int64, chaosDenom int, chaosSeed int64) *refDevice {
	r := &refDevice{
		live: make([]byte, size), staging: make([]byte, size), durable: make([]byte, size),
		dirty: make([]bool, size/LineSize), staged: make([]bool, size/LineSize),
		chaosDenom: chaosDenom,
	}
	if chaosDenom > 0 {
		r.chaos = uint64(chaosSeed)*2862933555777941757 + 3037000493
	}
	return r
}

func (r *refDevice) clone() *refDevice {
	c := *r
	c.live = append([]byte(nil), r.live...)
	c.staging = append([]byte(nil), r.staging...)
	c.durable = append([]byte(nil), r.durable...)
	c.dirty = append([]bool(nil), r.dirty...)
	c.staged = append([]bool(nil), r.staged...)
	return &c
}

func span(b []byte, l int64) []byte { return b[l*LineSize : (l+1)*LineSize] }

// store copies p into live at off, then marks each spanned line dirty or,
// on a chaos roll, evicts it; counted as the given number of line writes.
func (r *refDevice) store(p []byte, off, lines int64) {
	copy(r.live[off:], p)
	for l := lineOf(off); l <= lineOf(off+int64(len(p))-1); l++ {
		if r.chaosDenom > 0 {
			x := r.chaos
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			r.chaos = x
			if x%uint64(r.chaosDenom) == 0 {
				copy(span(r.durable, l), span(r.live, l))
				r.dirty[l], r.staged[l] = false, false
				continue
			}
		}
		r.dirty[l] = true
	}
	r.st.LineWrites += lines
	r.st.BytesWritten += int64(len(p))
}

// flush snapshots each dirty line into staging. When the fail-point fires
// it panics with errRefCrash after staging the firing line, before the
// call's elided lines are counted, as the device does.
func (r *refDevice) flush(off, n int64) {
	if n == 0 {
		return
	}
	var elided int64
	for l := lineOf(off); l <= lineOf(off+n-1); l++ {
		if !r.dirty[l] {
			elided++
			continue
		}
		copy(span(r.staging, l), span(r.live, l))
		r.dirty[l], r.staged[l] = false, true
		r.st.Flushes++
		if r.failAfter > 0 {
			if r.failAfter--; r.failAfter == 0 {
				panic(errRefCrash{})
			}
		}
	}
	r.st.FlushesElided += elided
}

func (r *refDevice) fence() {
	r.st.Fences++
	for l := range r.staged {
		if r.staged[l] {
			copy(span(r.durable, int64(l)), span(r.staging, int64(l)))
			r.staged[l] = false
			r.st.LinesFenced++
		}
	}
}

func (r *refDevice) crash(mode CrashMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for l := range r.dirty {
		ln := int64(l)
		if !r.dirty[l] && !r.staged[l] {
			continue
		}
		switch mode {
		case CrashAll:
			if r.staged[l] {
				copy(span(r.durable, ln), span(r.staging, ln))
			} else {
				copy(span(r.durable, ln), span(r.live, ln))
			}
		case CrashRandom:
			if r.dirty[l] && rng.Intn(2) == 0 {
				copy(span(r.durable, ln), span(r.live, ln))
			}
			if r.staged[l] && rng.Intn(2) == 0 {
				copy(span(r.durable, ln), span(r.staging, ln))
			}
		}
		r.dirty[l], r.staged[l] = false, false
	}
	copy(r.live, r.durable)
	r.failAfter = 0
}

func (r *refDevice) dirtyLines() int {
	n := 0
	for l := range r.dirty {
		if r.dirty[l] || r.staged[l] {
			n++
		}
	}
	return n
}

// TestDeviceMatchesReferenceModel drives the device and the reference
// model with the same random sequence of stores (WriteAt, Store64,
// Store32, Zero, WriteFields), flushes, fences, persists, fail-points,
// snapshots with Restore or NewDevice, and crashes in every mode, with
// and without chaos eviction. After every step the live bytes, Stats and
// DirtyLines of the two must agree.
func TestDeviceMatchesReferenceModel(t *testing.T) {
	const (
		lines = 12
		size  = lines * LineSize
		steps = 400
	)
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(trial))
		var opts []Option
		chaosDenom := 0
		if trial%3 == 2 {
			chaosDenom = 5
			opts = append(opts, WithChaosEviction(chaosDenom, trial))
		}
		d := New(size, opts...)
		ref := newRef(size, chaosDenom, trial)
		var snap *Snapshot
		var refSnap *refDevice

		// rangeOf picks a range of 1 to 2*LineSize bytes.
		rangeOf := func() (int64, int64) {
			n := int64(1 + rng.Intn(2*LineSize))
			off := rng.Int63n(size - n + 1)
			return off, n
		}
		data := func(n int64) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		// both runs f on the device and g on the model; a fail-point must
		// fire in both or in neither.
		both := func(step int, op string, f func(), g func()) {
			devFired := catchCrash(t, f)
			refFired := func() (fired bool) {
				defer func() {
					if rec := recover(); rec != nil {
						if _, ok := rec.(errRefCrash); !ok {
							panic(rec)
						}
						fired = true
					}
				}()
				g()
				return false
			}()
			if devFired != refFired {
				t.Fatalf("trial %d step %d %s: fail-point fired on device=%v model=%v", trial, step, op, devFired, refFired)
			}
		}

		for step := 0; step < steps; step++ {
			var op string
			switch k := rng.Intn(20); {
			case k < 4:
				op = "WriteAt"
				off, n := rangeOf()
				p := data(n)
				both(step, op, func() { d.WriteAt(p, off) }, func() { ref.store(p, off, linesSpanned(off, n)) })
			case k == 4:
				op = "Store64"
				off := rng.Int63n(size - 8 + 1)
				v := rng.Uint64()
				p := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)}
				both(step, op, func() { d.Store64(off, v) }, func() { ref.store(p, off, linesSpanned(off, 8)) })
			case k == 5:
				op = "Store32"
				off := rng.Int63n(size - 4 + 1)
				v := rng.Uint32()
				p := []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
				both(step, op, func() { d.Store32(off, v) }, func() { ref.store(p, off, 1) })
			case k == 6:
				op = "Zero"
				off, n := rangeOf()
				both(step, op, func() { d.Zero(off, n) }, func() { ref.store(make([]byte, n), off, linesSpanned(off, n)) })
			case k == 7:
				op = "WriteFields"
				var fields []FieldWrite
				for i := rng.Intn(3) + 1; i > 0; i-- {
					off, n := rangeOf()
					fields = append(fields, FieldWrite{Off: off, Data: data(n)})
				}
				var flushes []Range
				for i := rng.Intn(3); i > 0; i-- {
					off, n := rangeOf()
					flushes = append(flushes, Range{Off: off, N: n})
				}
				both(step, op, func() { d.WriteFields(fields, flushes) }, func() {
					for _, f := range fields {
						ref.store(f.Data, f.Off, linesSpanned(f.Off, int64(len(f.Data))))
					}
					for _, r := range flushes {
						ref.flush(r.Off, r.N)
					}
				})
			case k < 12:
				op = "Flush"
				off, n := rangeOf()
				both(step, op, func() { d.Flush(off, n) }, func() { ref.flush(off, n) })
			case k < 14:
				op = "Fence"
				both(step, op, d.Fence, ref.fence)
			case k == 14:
				op = "Persist"
				off, n := rangeOf()
				both(step, op, func() { d.Persist(off, n) }, func() { ref.flush(off, n); ref.fence() })
			case k == 15:
				op = "SetFailAfter"
				n := int64(rng.Intn(6))
				d.SetFailAfter(n)
				ref.failAfter = n
			case k == 16:
				op = "Snapshot"
				snap, refSnap = d.Snapshot(), ref.clone()
			case k == 17:
				if snap == nil {
					continue
				}
				if rng.Intn(2) == 0 {
					op = "Restore"
					d.Restore(snap)
				} else {
					op = "NewDevice"
					d = snap.NewDevice()
				}
				ref = refSnap.clone()
			default:
				mode := CrashMode(rng.Intn(3))
				seed := rng.Int63()
				op = fmt.Sprintf("Crash(%d)", mode)
				d.Crash(mode, seed)
				ref.crash(mode, seed)
			}
			if !bytes.Equal(d.live, ref.live) {
				t.Fatalf("trial %d step %d %s: live images differ", trial, step, op)
			}
			if st := d.Stats(); st != ref.st {
				t.Fatalf("trial %d step %d %s: stats %+v, model %+v", trial, step, op, st, ref.st)
			}
			if got, want := d.DirtyLines(), ref.dirtyLines(); got != want {
				t.Fatalf("trial %d step %d %s: DirtyLines %d, model %d", trial, step, op, got, want)
			}
		}
	}
}
