// Command nvbench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated NVMM substrate.
//
// Usage:
//
//	nvbench -exp fig5                # one experiment at quick scale
//	nvbench -exp all -scale paper    # everything, closer to paper scale
//	nvbench -list                    # enumerate experiments
//
// Each experiment prints one row per data point with the same labels the
// paper's figure uses, followed by the headline ratios (e.g. NVCaracal vs
// Zen per contention level). See EXPERIMENTS.md for paper-vs-measured
// comparisons.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nvcaracal/internal/bench"
	"nvcaracal/internal/bench/regress"
	"nvcaracal/internal/nvm"
)

// flagWasSet reports whether a flag was explicitly passed (distinguishing
// -regress-history= meaning "disable" from the flag's absence).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run ("+strings.Join(bench.Names(), ", ")+", or all)")
		scaleName = flag.String("scale", "quick", "scale: quick or paper")
		list      = flag.Bool("list", false, "list experiments and exit")
		seed      = flag.Int64("seed", 42, "workload RNG seed")
		cores     = flag.Int("cores", 0, "worker cores (0 = GOMAXPROCS)")
		epochTxns = flag.Int("epoch-txns", 0, "override transactions per epoch")
		epochs    = flag.Int("epochs", 0, "override measured epochs")
		readLat   = flag.Duration("read-lat", 0, "override NVMM read latency per line")
		writeLat  = flag.Duration("write-lat", 0, "override NVMM write latency per line")
		csvPath   = flag.String("csv", "", "also write results as CSV to this file")
		devBench  = flag.String("device-bench", "", "run the raw device contention benchmark and write JSON to this file (skips experiments)")
		devOps    = flag.Int("device-ops", 200000, "device-bench iterations per core")
		obsBench  = flag.String("obs-bench", "", "run the observed phase-breakdown cells and write BENCH_obs.json-style output to this file (skips experiments)")
		attrBench = flag.String("attrib-bench", "", "run the NVMM access-attribution cells (dual-version vs persist-every-write) and write BENCH_attrib.json-style output to this file (skips experiments)")
		pipeBench = flag.String("pipeline-bench", "", "run the serial/pipeline epoch-commit sweep and write BENCH_pipeline.json-style output to this file (skips experiments)")

		checkRegress   = flag.Bool("check-regress", false, "re-run the committed bench baselines and compare with noise-aware tolerance bands (skips experiments; exit 1 on a gating regression)")
		regressRepeats = flag.Int("regress-repeats", 3, "repeats per report for -check-regress; the per-metric median is compared")
		regressDir     = flag.String("regress-dir", ".", "directory holding the committed BENCH_*.json baselines")
		regressHistory = flag.String("regress-history", "", "append the comparison to this JSONL trend file (default <regress-dir>/BENCH_history.jsonl; empty string after explicit -regress-history= disables)")
		regressReports = flag.String("regress-reports", "obs,attrib", "comma-separated baselines to check: obs, attrib, pipeline, device")
		regressStall   = flag.Duration("inject-commit-stall", 0, "fault injection for -check-regress: stall every commit fence of the observed runs by this much (proves the gate trips)")
		regressVerbose = flag.Bool("regress-verbose", false, "print every compared metric, not just non-ok ones")
	)
	flag.Parse()

	if *checkRegress {
		hist := *regressHistory
		if hist == "" && !flagWasSet("regress-history") {
			hist = *regressDir + "/BENCH_history.jsonl"
		}
		failed, err := runCheckRegress(*scaleName, *seed, *regressRepeats, *regressDir,
			hist, *regressReports, *regressStall, *regressVerbose)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: check-regress: %v\n", err)
			os.Exit(1)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	if *obsBench != "" {
		if err := runObsBench(*obsBench, *scaleName, *seed, *cores); err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: obs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *attrBench != "" {
		if err := runAttribBench(*attrBench, *scaleName, *seed, *cores); err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: attrib-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *pipeBench != "" {
		if err := runPipelineBench(*pipeBench, *scaleName, *seed, *epochTxns, *epochs); err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: pipeline-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *devBench != "" {
		if err := runDeviceBench(*devBench, *devOps); err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: device-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Title)
		}
		return
	}

	var scale bench.Scale
	switch *scaleName {
	case "quick":
		scale = bench.QuickScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "nvbench: unknown scale %q (quick or paper)\n", *scaleName)
		os.Exit(2)
	}
	scale.Cores = *cores
	if *epochTxns > 0 {
		scale.EpochTxns = *epochTxns
	}
	if *epochs > 0 {
		scale.Epochs = *epochs
	}
	if *readLat > 0 {
		scale.ReadLatency = *readLat
	}
	if *writeLat > 0 {
		scale.WriteLatency = *writeLat
	}

	opts := bench.Options{Scale: scale, Out: os.Stdout, Seed: *seed}
	fmt.Printf("nvbench: scale=%s cores=%d epoch=%d txns x %d epochs, NVMM latency r/w=%v/%v\n\n",
		scale.Name, runtime.GOMAXPROCS(0), scale.EpochTxns, scale.Epochs,
		scale.ReadLatency, scale.WriteLatency)

	var all []bench.Result
	run := func(e bench.Experiment) {
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
		start := time.Now()
		all = append(all, e.Run(opts)...)
		fmt.Printf("=== %s done in %v ===\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
	} else {
		e, ok := bench.ByName(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "nvbench: unknown experiment %q; -list shows options\n", *exp)
			os.Exit(2)
		}
		run(e)
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, all); err != nil {
			fmt.Fprintf(os.Stderr, "nvbench: csv: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d result rows to %s\n", len(all), *csvPath)
	}
}

// writeCSV flattens results to exp,label1,value1,...,value,unit rows.
func writeCSV(path string, rs []bench.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"exp", "labels", "value", "unit"}); err != nil {
		return err
	}
	for _, r := range rs {
		var labels []string
		for _, l := range r.Labels {
			labels = append(labels, l.Key+"="+l.Val)
		}
		rec := []string{r.Exp, strings.Join(labels, ";"), strconv.FormatFloat(r.Value, 'f', 3, 64), r.Unit}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Error()
}

// deviceBenchReport is the schema of BENCH_device.json: the raw device-op
// throughput trajectory committed to the repo so device-layer changes show
// their perf effect in review. Wall-clock numbers are hardware-dependent;
// the committed file records the reference machine in `cpu`/`go`.
type deviceBenchReport struct {
	Benchmark string                  `json:"benchmark"`
	Go        string                  `json:"go"`
	CPU       int                     `json:"gomaxprocs"`
	OpsCore   int                     `json:"ops_per_core"`
	Results   []nvm.DeviceBenchResult `json:"results"`
}

// runObsBench runs the observed phase-breakdown cells and writes the
// BENCH_obs.json artifact: where epoch time goes (log/init/execute/persist
// plus GC shares) per workload and contention level.
func runPipelineBench(path, scaleName string, seed int64, epochTxns, epochs int) error {
	var scale bench.Scale
	switch scaleName {
	case "quick":
		scale = bench.QuickScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (quick or paper)", scaleName)
	}
	if epochTxns > 0 {
		scale.EpochTxns = epochTxns
	}
	if epochs > 0 {
		scale.Epochs = epochs
	}
	rep, err := bench.RunPipelineReport(bench.Options{Scale: scale, Out: os.Stdout, Seed: seed})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d pipeline cells to %s\n", len(rep.Cells), path)
	return nil
}

func runObsBench(path, scaleName string, seed int64, cores int) error {
	var scale bench.Scale
	switch scaleName {
	case "quick":
		scale = bench.QuickScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (quick or paper)", scaleName)
	}
	scale.Cores = cores
	rep, err := bench.RunObsReport(bench.Options{Scale: scale, Out: os.Stdout, Seed: seed})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d observed cells to %s\n", len(rep.Cells), path)
	return nil
}

// runAttribBench runs the NVMM access-attribution cells and writes the
// BENCH_attrib.json artifact: per-cause line write-back counters and
// write-amplification windows for dual-version vs persist-every-write, per
// workload and contention level.
func runAttribBench(path, scaleName string, seed int64, cores int) error {
	var scale bench.Scale
	switch scaleName {
	case "quick":
		scale = bench.QuickScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (quick or paper)", scaleName)
	}
	scale.Cores = cores
	rep, err := bench.RunAttribReport(bench.Options{Scale: scale, Out: os.Stdout, Seed: seed})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d attributed cells (%d comparisons) to %s\n", len(rep.Cells), len(rep.Comparisons), path)
	return nil
}

// runCheckRegress re-runs the requested bench reports against the committed
// BENCH_*.json baselines in dir and compares with regress's per-class
// tolerance bands: shares and ratios (the paper's shape claims) gate,
// wall-clock metrics only trend. Each report runs `repeats` times and the
// per-metric median is compared, so single-run scheduler noise cannot trip
// the gate. The outcome is appended to the JSONL history file (when set),
// gating or not — the history is the trend record.
func runCheckRegress(scaleName string, seed int64, repeats int, dir, history, reports string,
	stall time.Duration, verbose bool) (failed bool, err error) {
	if repeats < 1 {
		repeats = 1
	}
	var scale bench.Scale
	switch scaleName {
	case "quick":
		scale = bench.QuickScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		return false, fmt.Errorf("unknown scale %q (quick or paper)", scaleName)
	}

	entry := regress.HistoryEntry{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale.Name,
		Repeats:    repeats,
	}
	if stall > 0 {
		fmt.Printf("check-regress: injecting %v commit-fence stall into observed runs\n", stall)
	}

	runReport := func(name string, base []regress.Metric, baseScale string,
		run func() ([]regress.Metric, error)) error {
		if baseScale != "" && baseScale != scale.Name {
			return fmt.Errorf("%s: baseline is scale %q, this run is %q — compare like with like", name, baseScale, scale.Name)
		}
		runs := make([][]regress.Metric, 0, repeats)
		for i := 0; i < repeats; i++ {
			fmt.Printf("check-regress: %s run %d/%d...\n", name, i+1, repeats)
			ms, err := run()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			runs = append(runs, ms)
		}
		med := regress.MedianOfRuns(runs)
		rep := regress.Compare(name, base, med, nil)
		rep.Format(os.Stdout, verbose)
		entry.Fold(rep)
		entry.Metrics = append(entry.Metrics, med...)
		if rep.Failed() {
			failed = true
		}
		return nil
	}

	for _, name := range strings.Split(reports, ",") {
		switch strings.TrimSpace(name) {
		case "obs":
			base, baseRep, err := regress.LoadObsBaseline(dir + "/BENCH_obs.json")
			if err != nil {
				return false, err
			}
			s := scale
			s.Cores = baseRep.GOMAXPROCS // pin engine cores to the baseline's
			if err := runReport("BENCH_obs.json", base, baseRep.Scale, func() ([]regress.Metric, error) {
				r, err := bench.RunObsReport(bench.Options{Scale: s, Seed: seed, CommitStall: stall})
				if err != nil {
					return nil, err
				}
				return regress.FromObsReport(r), nil
			}); err != nil {
				return false, err
			}
		case "attrib":
			base, baseRep, err := regress.LoadAttribBaseline(dir + "/BENCH_attrib.json")
			if err != nil {
				return false, err
			}
			s := scale
			s.Cores = baseRep.GOMAXPROCS
			if err := runReport("BENCH_attrib.json", base, baseRep.Scale, func() ([]regress.Metric, error) {
				r, err := bench.RunAttribReport(bench.Options{Scale: s, Seed: seed})
				if err != nil {
					return nil, err
				}
				return regress.FromAttribReport(r), nil
			}); err != nil {
				return false, err
			}
		case "pipeline":
			base, baseRep, err := regress.LoadPipelineBaseline(dir + "/BENCH_pipeline.json")
			if err != nil {
				return false, err
			}
			if err := runReport("BENCH_pipeline.json", base, baseRep.Scale, func() ([]regress.Metric, error) {
				r, err := bench.RunPipelineReport(bench.Options{Scale: scale, Seed: seed})
				if err != nil {
					return nil, err
				}
				return regress.FromPipelineReport(r), nil
			}); err != nil {
				return false, err
			}
		case "device":
			base, baseRep, err := regress.LoadDeviceBaseline(dir + "/BENCH_device.json")
			if err != nil {
				return false, err
			}
			if err := runReport("BENCH_device.json", base, "", func() ([]regress.Metric, error) {
				rep := regress.DeviceBenchReport{OpsCore: baseRep.OpsCore}
				for _, r := range baseRep.Results {
					rep.Results = append(rep.Results, nvm.RunDeviceBench(r.Cores, baseRep.OpsCore))
				}
				return regress.FromDeviceReport(rep), nil
			}); err != nil {
				return false, err
			}
		default:
			return false, fmt.Errorf("unknown regress report %q (obs, attrib, pipeline, device)", name)
		}
	}

	if history != "" {
		if err := regress.AppendHistory(history, entry); err != nil {
			return false, fmt.Errorf("history: %w", err)
		}
		fmt.Printf("check-regress: appended to %s\n", history)
	}
	if failed {
		fmt.Println("check-regress: FAIL (gating regression)")
	} else {
		fmt.Println("check-regress: ok")
	}
	return failed, nil
}

// runDeviceBench measures device-op throughput at 1/4/8 worker goroutines
// (the BenchmarkDeviceContention sweep) and writes the JSON artifact.
func runDeviceBench(path string, opsPerCore int) error {
	rep := deviceBenchReport{
		Benchmark: "device-contention",
		Go:        runtime.Version(),
		CPU:       runtime.GOMAXPROCS(0),
		OpsCore:   opsPerCore,
	}
	for _, cores := range []int{1, 4, 8} {
		r := nvm.RunDeviceBench(cores, opsPerCore)
		rep.Results = append(rep.Results, r)
		fmt.Printf("device-bench cores=%d: %.0f devops/s (%d ops in %.3fs)\n",
			r.Cores, r.OpsSec, r.Ops, r.Secs)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
