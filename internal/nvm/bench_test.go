package nvm

import (
	"fmt"
	"testing"
)

// BenchmarkDeviceContention measures raw device-op throughput as worker
// goroutines scale, with the latency model off: it isolates the simulated
// device's own synchronization cost, which must stay far below the
// engine's work per access for scalability curves to reflect the design
// under test rather than the simulator (see DESIGN.md, "Device performance
// model"). BENCH_device.json commits the same measurement via nvbench.
func BenchmarkDeviceContention(b *testing.B) {
	for _, cores := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			opsPerCore := b.N
			r := RunDeviceBench(cores, opsPerCore)
			b.ReportMetric(r.OpsSec, "devops/s")
		})
	}
}

// BenchmarkStoreFlushFence is the single-goroutine baseline of the same
// pattern, for profiling the per-op cost without contention.
func BenchmarkStoreFlushFence(b *testing.B) {
	d := New(1 << 20)
	var val [128]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%4096) * 256
		d.Store64(off, uint64(i))
		d.WriteAt(val[:], off+64)
		d.Flush(off, 192)
		if i%256 == 255 {
			d.Fence()
		}
	}
}

// BenchmarkFenceEmpty is the cost of a fence with nothing flushed since the
// last one, latency model off: the simulator's own bookkeeping per fence.
func BenchmarkFenceEmpty(b *testing.B) {
	d := New(1 << 20)
	for i := 0; i < b.N; i++ {
		d.Fence()
	}
}
