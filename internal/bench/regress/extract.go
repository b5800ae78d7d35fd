package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"nvcaracal/internal/bench"
	"nvcaracal/internal/nvm"
)

// Extraction turns each committed BENCH_*.json schema into a flat,
// comparable metric list. Only scale-free shapes (shares, ratios) and the
// wall-clock trend metrics are extracted — raw event counts from measured
// runs are NOT, because the harness repeats epochs until a minimum
// measurement window and the absolute counts therefore depend on machine
// speed. Anything count-classed here must be deterministic per cell.

// FromObsReport extracts the phase-breakdown shape: per-cell phase shares
// of epoch time (the paper's where-does-epoch-time-go claim), plus
// throughput and epoch-latency trend metrics.
func FromObsReport(r bench.ObsReport) []Metric {
	var ms []Metric
	for _, c := range r.Cells {
		pre := fmt.Sprintf("obs/%s/%s/", c.Workload, c.Contention)
		ms = append(ms,
			Metric{Key: pre + "ktps", Value: c.KTPS, Class: ClassTime, Better: HigherBetter},
			Metric{Key: pre + "epoch_p50_ms", Value: float64(c.Epoch.P50NS) / 1e6, Class: ClassTime, Better: LowerBetter},
		)
		// Deterministic order for stable reports.
		phases := make([]string, 0, len(c.PhaseSharePct))
		for ph := range c.PhaseSharePct {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, ph := range phases {
			ms = append(ms, Metric{
				Key:    pre + "share/" + ph,
				Value:  c.PhaseSharePct[ph],
				Class:  ClassShare,
				Better: Exact,
			})
		}
	}
	return ms
}

// FromAttribReport extracts the NVMM write-reduction shape: per-cell
// write-amplification and persist-all ratios, per-cause flush shares, and
// the headline dual-vs-persist-all comparisons. All scale-free.
func FromAttribReport(r bench.AttribReport) []Metric {
	var ms []Metric
	for _, c := range r.Cells {
		pre := fmt.Sprintf("attrib/%s/%s/%s/", c.Workload, c.Contention, c.Mode)
		ms = append(ms,
			Metric{Key: pre + "ktps", Value: c.KTPS, Class: ClassTime, Better: HigherBetter},
			Metric{Key: pre + "write_amp", Value: c.WriteAmp.WriteAmp, Class: ClassRatio, Better: LowerBetter},
		)
		if c.WriteAmp.PersistAllRatio > 0 {
			ms = append(ms, Metric{Key: pre + "persist_all_ratio",
				Value: c.WriteAmp.PersistAllRatio, Class: ClassRatio, Better: HigherBetter})
		}
		var total int64
		for _, cc := range c.PerCause {
			total += cc.Flushes
		}
		if total > 0 {
			causes := make([]string, 0, len(c.PerCause))
			for cause := range c.PerCause {
				causes = append(causes, cause)
			}
			sort.Strings(causes)
			for _, cause := range causes {
				ms = append(ms, Metric{
					Key:    pre + "flush_share/" + cause,
					Value:  100 * float64(c.PerCause[cause].Flushes) / float64(total),
					Class:  ClassShare,
					Better: Exact,
				})
			}
		}
	}
	for _, cmp := range r.Comparisons {
		pre := fmt.Sprintf("attrib/%s/%s/", cmp.Workload, cmp.Contention)
		ms = append(ms,
			Metric{Key: pre + "measured_ratio", Value: cmp.MeasuredRatio, Class: ClassRatio, Better: HigherBetter},
			Metric{Key: pre + "counterfactual_ratio", Value: cmp.CounterfactualRatio, Class: ClassRatio, Better: HigherBetter},
		)
	}
	return ms
}

// FromPipelineReport extracts the epoch-commit overlap shape: per-cell
// speedup over serial (the regression target — deltas shrinking toward 1.0
// mean the commit crept back onto the critical path) plus throughput
// trends.
func FromPipelineReport(r bench.PipelineReport) []Metric {
	var ms []Metric
	for _, c := range r.Cells {
		pre := fmt.Sprintf("pipeline/%s/%s/%dw/", c.Workload, c.Mode, c.Workers)
		ms = append(ms, Metric{Key: pre + "ktps", Value: c.KTPS, Class: ClassTime, Better: HigherBetter})
		if c.Mode != "serial" {
			ms = append(ms, Metric{Key: pre + "speedup_vs_serial",
				Value: c.SpeedupVsSerial, Class: ClassRatio, Better: HigherBetter})
		}
	}
	return ms
}

// DeviceBenchReport mirrors cmd/nvbench's BENCH_device.json schema (the
// writer keeps its own unexported copy; the fields are the contract).
type DeviceBenchReport struct {
	Benchmark string                  `json:"benchmark"`
	Go        string                  `json:"go"`
	CPU       int                     `json:"gomaxprocs"`
	OpsCore   int                     `json:"ops_per_core"`
	Results   []nvm.DeviceBenchResult `json:"results"`
}

// FromDeviceReport extracts raw device-op throughput per core count —
// wall-clock, trend-only.
func FromDeviceReport(r DeviceBenchReport) []Metric {
	var ms []Metric
	for _, res := range r.Results {
		ms = append(ms, Metric{
			Key:    fmt.Sprintf("device/%dcores/ops_per_sec", res.Cores),
			Value:  res.OpsSec,
			Class:  ClassTime,
			Better: HigherBetter,
		})
	}
	return ms
}

// LoadObsBaseline reads a committed BENCH_obs.json into metrics.
func LoadObsBaseline(path string) ([]Metric, bench.ObsReport, error) {
	var r bench.ObsReport
	err := readJSON(path, &r)
	if err != nil {
		return nil, r, err
	}
	return FromObsReport(r), r, nil
}

// LoadAttribBaseline reads a committed BENCH_attrib.json into metrics.
func LoadAttribBaseline(path string) ([]Metric, bench.AttribReport, error) {
	var r bench.AttribReport
	err := readJSON(path, &r)
	if err != nil {
		return nil, r, err
	}
	return FromAttribReport(r), r, nil
}

// LoadPipelineBaseline reads a committed BENCH_pipeline.json into metrics.
func LoadPipelineBaseline(path string) ([]Metric, bench.PipelineReport, error) {
	var r bench.PipelineReport
	err := readJSON(path, &r)
	if err != nil {
		return nil, r, err
	}
	return FromPipelineReport(r), r, nil
}

// LoadDeviceBaseline reads a committed BENCH_device.json into metrics.
func LoadDeviceBaseline(path string) ([]Metric, DeviceBenchReport, error) {
	var r DeviceBenchReport
	err := readJSON(path, &r)
	if err != nil {
		return nil, r, err
	}
	return FromDeviceReport(r), r, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
