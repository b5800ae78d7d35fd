package obs

// DeviceObs carries the device-level instruments internal/nvm records into:
// latency histograms for the read/write/flush/fence paths. The fence
// histogram's sum doubles as the fence-stall total, the nanoseconds spent
// draining fences. It makes the
// simulated DRAM:NVMM gap visible — charged latency shows up in these
// histograms, not just in wall-clock totals.
//
// The observer is attached-but-disabled when built with NewDeviceObs(false):
// the device keeps its instrumentation call sites wired while On() short-
// circuits, which is what the disabled-overhead budget benchmarks measure
// against a device with no observer at all.
type DeviceObs struct {
	on bool

	Read  *Hist // ReadAt / Slice / Load64 / Load32
	Write *Hist // WriteAt / Zero / Store64 / Store32 / WriteFields
	Flush *Hist // Flush calls that touched at least one line
	Fence *Hist
}

// NewDeviceObs returns a device observer; on=false yields the
// attached-but-disabled configuration.
func NewDeviceObs(on bool) *DeviceObs {
	o := &DeviceObs{on: on}
	if on {
		o.Read = NewHist()
		o.Write = NewHist()
		o.Flush = NewHist()
		o.Fence = NewHist()
	}
	return o
}

// On reports whether the observer records; nil-safe, and the only check the
// device's hot paths make.
func (o *DeviceObs) On() bool { return o != nil && o.on }

// FenceStallNanos returns the accumulated fence-drain nanoseconds: the sum
// of the fence histogram.
func (o *DeviceObs) FenceStallNanos() int64 {
	if o == nil {
		return 0
	}
	return o.Fence.Snapshot().Sum
}

// Reset clears the device histograms.
func (o *DeviceObs) Reset() {
	if o == nil {
		return
	}
	o.Read.Reset()
	o.Write.Reset()
	o.Flush.Reset()
	o.Fence.Reset()
}

// DeviceJSON is the serving form of the device observer.
type DeviceJSON struct {
	Read            HistJSON `json:"read"`
	Write           HistJSON `json:"write"`
	Flush           HistJSON `json:"flush"`
	Fence           HistJSON `json:"fence"`
	FenceStallNanos int64    `json:"fence_stall_ns"`
}

// JSON folds the device histograms into their serving form; nil when the
// observer is absent or disabled.
func (o *DeviceObs) JSON() *DeviceJSON {
	if !o.On() {
		return nil
	}
	fence := o.Fence.Snapshot()
	return &DeviceJSON{
		Read:            o.Read.Snapshot().JSON(),
		Write:           o.Write.Snapshot().JSON(),
		Flush:           o.Flush.Snapshot().JSON(),
		Fence:           fence.JSON(),
		FenceStallNanos: fence.Sum,
	}
}
