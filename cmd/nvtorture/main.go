// Command nvtorture explores the crash-point space of a seeded workload
// and checks that recovery restores a consistent state at every point:
// run crash-free to capture per-epoch oracle digests, then power-fail the
// simulated NVMM device after each flushed line (exhaustively for small
// workloads, stratified toward persist-phase boundaries for large),
// crossed with strict/all/random partial-persistence modes and
// crash-during-recovery double faults.
//
// Exit codes: 0 no violations, 1 violations found, 2 usage or setup error.
// On violations the first one is minimized to a JSON reproducer that
// `nvtorture -repro file.json` replays.
//
// Usage:
//
//	nvtorture -budget 30s -report report.json
//	nvtorture -workload tpcc -rows 2 -max-points 2000
//	nvtorture -repro nvtorture-repro.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nvcaracal/internal/core"
	"nvcaracal/internal/crashcheck"
)

func main() {
	var (
		// Exploration scope.
		budget    = flag.Duration("budget", 0, "wall-clock budget for exploration (0 = unbounded)")
		maxPoints = flag.Int("max-points", 0, "max crash points planned (0 = exhaustive cross product)")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		modes     = flag.String("modes", "", "comma-separated crash modes: strict,all,random (empty = all three)")
		randSeeds = flag.Int("random-seeds", 0, "seeds per CrashRandom point (0 = default 1)")
		doubles   = flag.Bool("double-faults", true, "add crash-during-recovery variants")
		dblEvery  = flag.Int("double-every", 0, "double-fault every Nth point (0 = default 8)")

		// Workload spec. -spec loads a JSON file; the individual flags
		// override DefaultSpec when no file is given.
		specPath  = flag.String("spec", "", "JSON workload spec file (overrides the spec flags)")
		workload  = flag.String("workload", "kv", "kv, ycsb, smallbank, or tpcc")
		aria      = flag.Bool("aria", false, "use the Aria batch path (kv only)")
		cores     = flag.Int("cores", 1, "engine cores (1 keeps crash points exactly replayable)")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		rows      = flag.Int("rows", 0, "dataset size (0 = workload default)")
		warm      = flag.Int("warm-epochs", -1, "committed epochs before the probe epoch (-1 = default)")
		epochTxns = flag.Int("epoch-txns", 0, "transactions in the probe epoch (0 = default)")
		valBytes  = flag.Int("value-bytes", -1, "pooled value size for kv (-1 = default)")
		minorGC   = flag.Bool("minor-gc", true, "enable minor GC")
		chaos     = flag.Int("chaos-denom", -1, "chaos cache-eviction denominator, 0 disables (-1 = default)")
		pIndex    = flag.Bool("persist-index", false, "persist the index via the index journal")
		pipeline  = flag.Bool("pipeline", false, "depth-1 epoch pipeline: sweep a two-epoch overlapped probe window")

		// Outputs and modes of operation.
		reportPath = flag.String("report", "", "write the JSON exploration report here")
		reproPath  = flag.String("repro", "", "replay a JSON reproducer instead of exploring")
		reproOut   = flag.String("repro-out", "nvtorture-repro.json", "where to write the minimized reproducer on violations")
		minBudget  = flag.Duration("minimize-budget", 60*time.Second, "wall-clock budget for minimizing the first violation")
		breakOrder = flag.Bool("break-persist-order", false, "deliberately break SID-before-pointer persist ordering (checker self-test)")
		quiet      = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *breakOrder {
		core.SetPersistOrderBroken(true)
	}

	if *reproPath != "" {
		os.Exit(replay(*reproPath, *quiet))
	}

	spec := crashcheck.DefaultSpec()
	if *specPath != "" {
		var err error
		if spec, err = crashcheck.LoadSpec(*specPath); err != nil {
			fatal(err)
		}
	} else {
		spec.Workload = *workload
		spec.Aria = *aria
		spec.Cores = *cores
		spec.Seed = *seed
		spec.MinorGC = *minorGC
		spec.PersistIndex = *pIndex
		spec.Pipeline = *pipeline
		if *rows > 0 {
			spec.Rows = *rows
		} else {
			spec.Rows = defaultRows(*workload)
		}
		if *warm >= 0 {
			spec.WarmEpochs = *warm
		}
		if *epochTxns > 0 {
			spec.TxnsPerEpoch = *epochTxns
		}
		if *valBytes >= 0 {
			spec.ValueBytes = *valBytes
		}
		if *chaos >= 0 {
			spec.ChaosDenom = *chaos
		}
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	cfg := crashcheck.Config{
		Budget:       *budget,
		MaxPoints:    *maxPoints,
		Workers:      *workers,
		RandomSeeds:  *randSeeds,
		DoubleFaults: *doubles,
		DoubleEvery:  *dblEvery,
	}
	if *modes != "" {
		cfg.Modes = strings.Split(*modes, ",")
	}
	if !*quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := crashcheck.Run(spec, cfg)
	if err != nil {
		fatal(err)
	}
	if *reportPath != "" {
		if err := writeReport(*reportPath, rep); err != nil {
			fatal(err)
		}
	}

	kind := "sampled"
	if rep.Exhaustive {
		kind = "exhaustive"
	}
	fmt.Printf("nvtorture: %s/%d-core: %d/%d points (%s over %d flushes, %d fences), %d violations, %dms\n",
		spec.Workload, spec.Cores, rep.PointsExplored, rep.PointsPlanned,
		kind, rep.FlushPoints, rep.FenceCount, len(rep.Violations), rep.ElapsedMS)

	if len(rep.Violations) == 0 {
		return
	}
	for i, v := range rep.Violations {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(rep.Violations)-8)
			break
		}
		fmt.Printf("  %s\n", v)
	}
	fmt.Fprintf(os.Stderr, "minimizing first violation (budget %s)...\n", *minBudget)
	repro := crashcheck.Minimize(spec, rep.Violations[0], cfg, *minBudget)
	repro.BrokenPersistOrder = *breakOrder
	if err := repro.WriteFile(*reproOut); err != nil {
		fatal(err)
	}
	fmt.Printf("reproducer written to %s (spec rows=%d warm=%d txns=%d): %s at %s\n",
		*reproOut, repro.Spec.Rows, repro.Spec.WarmEpochs, repro.Spec.TxnsPerEpoch,
		repro.Kind, repro.Point)
	os.Exit(1)
}

// replay re-executes a reproducer. Exit 1 if the violation still
// reproduces (the bug is present), 0 if the build no longer exhibits it.
func replay(path string, quiet bool) int {
	r, err := crashcheck.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvtorture:", err)
		return 2
	}
	if r.BrokenPersistOrder {
		core.SetPersistOrderBroken(true)
	}
	v, err := crashcheck.Replay(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvtorture:", err)
		return 2
	}
	if v == nil {
		fmt.Printf("nvtorture: %s: not reproduced (recorded %s at %s)\n", path, r.Kind, r.Point)
		return 0
	}
	fmt.Printf("nvtorture: %s: reproduced: %s\n", path, v)
	if !quiet && v.FlightTail != "" {
		fmt.Printf("flight recorder (crash-recover-check cycle):\n%s", v.FlightTail)
	}
	return 1
}

// defaultRows picks a dataset size that keeps the default exploration fast
// for each workload's natural unit (kv/ycsb rows, smallbank customers,
// tpcc warehouses).
func defaultRows(workload string) int {
	switch workload {
	case "tpcc":
		return 1
	case "smallbank":
		return 24
	case "ycsb":
		return 32
	default:
		return crashcheck.DefaultSpec().Rows
	}
}

func writeReport(path string, rep *crashcheck.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvtorture:", err)
	os.Exit(2)
}
