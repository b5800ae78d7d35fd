// Command nvrecover demonstrates the failure-recovery protocol end to end:
// it loads a workload, runs committed epochs, power-fails the simulated
// NVMM device midway through an epoch's persists, recovers, verifies, and
// prints the Figure 11-style recovery-time breakdown.
//
// Usage:
//
//	nvrecover -workload smallbank -rows 20000 -crash-depth 2000
//
// With the default -crash-depth 0 the fail-point sits halfway through the
// write-backs of the last committed epoch, which is deep enough that the
// doomed epoch's input log is durable and short of its checkpoint. A
// fail-point that does not fire (the doomed epoch wrote back fewer lines)
// is reported as such, with exit status 1.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"nvcaracal"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/workload/smallbank"
	"nvcaracal/internal/workload/ycsb"
)

func main() {
	var (
		workload   = flag.String("workload", "smallbank", "ycsb or smallbank")
		rows       = flag.Int("rows", 10_000, "YCSB rows / SmallBank customers")
		epochTxns  = flag.Int("epoch-txns", 1000, "transactions per epoch")
		epochs     = flag.Int("epochs", 3, "committed epochs before the crash")
		crashDepth = flag.Int64("crash-depth", 0, "flushed lines into the doomed epoch before power failure (0: half the last committed epoch's write-backs)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
	)
	flag.Parse()

	reg := nvcaracal.NewRegistry()
	// A minimal Obs attaches the always-on flight recorder, so the recovery
	// run leaves a per-stage progress log we can print afterwards.
	cfg := nvcaracal.Config{Registry: reg, Obs: nvcaracal.NewObs(nvcaracal.ObsConfig{})}
	rng := rand.New(rand.NewSource(*seed))
	var gen func() []*nvcaracal.Txn
	var loadBatches [][]*nvcaracal.Txn
	var verify func(db *nvcaracal.DB) error

	switch *workload {
	case "ycsb":
		w, err := ycsb.New(ycsb.DefaultConfig(*rows))
		if err != nil {
			fatal(err)
		}
		w.Register(reg)
		cfg.RowsPerCore = int64(*rows)*2 + 8192
		cfg.ValuesPerCore = int64(*rows)*3 + 8192
		loadBatches = w.LoadBatches(*epochTxns * 4)
		gen = func() []*nvcaracal.Txn { return w.GenBatch(rng, *epochTxns) }
		verify = func(db *nvcaracal.DB) error {
			if db.RowCount() != *rows {
				return fmt.Errorf("row count %d, want %d", db.RowCount(), *rows)
			}
			return nil
		}
	case "smallbank":
		w, err := smallbank.New(smallbank.DefaultConfig(*rows, max(1, *rows/100)))
		if err != nil {
			fatal(err)
		}
		w.Register(reg)
		cfg.RowSize = 128
		cfg.ValueSize = 64
		cfg.RowsPerCore = int64(*rows)*6 + 8192
		cfg.ValuesPerCore = 8192
		loadBatches = w.LoadBatches(*epochTxns * 4)
		gen = func() []*nvcaracal.Txn { return w.GenBatch(rng, *epochTxns) }
		verify = func(db *nvcaracal.DB) error {
			if db.RowCount() != 3**rows {
				return fmt.Errorf("row count %d, want %d", db.RowCount(), 3**rows)
			}
			return nil
		}
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	db, dev, err := nvcaracal.OpenWithDevice(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("loading %s...\n", *workload)
	for _, b := range loadBatches {
		if _, err := db.RunEpoch(b); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("running %d committed epochs of %d txns...\n", *epochs, *epochTxns)
	var epochFlushes int64
	for e := 0; e < *epochs; e++ {
		before := dev.Stats().Flushes
		if _, err := db.RunEpoch(gen()); err != nil {
			fatal(err)
		}
		epochFlushes = dev.Stats().Flushes - before
	}
	lastCommitted := db.Epoch()
	depth := *crashDepth
	if depth <= 0 {
		depth = max(1, epochFlushes/2)
	}

	fmt.Printf("arming fail-point %d flushed lines into epoch %d, then pulling the plug...\n",
		depth, lastCommitted+1)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != nvm.ErrInjectedCrash {
					panic(r)
				}
				crashed = true
			}
		}()
		dev.SetFailAfter(depth)
		db.RunEpoch(gen())
	}()
	if !crashed {
		fmt.Printf("fail-point did not fire: epoch %d committed with fewer than %d write-backs (the last committed epoch wrote back %d)\n",
			db.Epoch(), depth, epochFlushes)
		os.Exit(1)
	}
	dev.Crash(nvm.CrashStrict, *seed)
	fmt.Println("power failed. recovering...")

	start := time.Now()
	db2, rep, err := nvcaracal.Recover(dev, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nrecovered to epoch %d in %v\n", db2.Epoch(), time.Since(start).Round(time.Microsecond))
	fmt.Printf("  checkpoint epoch:   %d\n", rep.CheckpointEpoch)
	if rep.ReplayedEpoch != 0 {
		fmt.Printf("  replayed epoch:     %d (%d txns)\n", rep.ReplayedEpoch, rep.TxnsReplayed)
	} else {
		fmt.Printf("  replayed epoch:     none (crash before the input log was durable)\n")
	}
	fmt.Printf("  rows scanned:       %d (repaired %d torn descriptors, reverted %d)\n",
		rep.RowsScanned, rep.RowsRepaired, rep.RowsReverted)
	fmt.Printf("  counters restored:  %d\n", rep.CountersRestored)
	fmt.Printf("  breakdown: load %v | scan+rebuild %v | revert %v | replay %v\n",
		rep.LoadTime.Round(time.Microsecond), rep.ScanTime.Round(time.Microsecond),
		rep.RevertTime.Round(time.Microsecond), rep.ReplayTime.Round(time.Microsecond))
	if stages := recoveryStages(cfg.Obs); len(stages) > 0 {
		fmt.Println("  flight log:")
		for _, s := range stages {
			fmt.Printf("    %s\n", s)
		}
	}

	if err := verify(db2); err != nil {
		fatal(fmt.Errorf("verification failed: %w", err))
	}
	fmt.Println("\nverification passed; database is consistent and running:")
	if _, err := db2.RunEpoch(gen()); err != nil {
		fatal(err)
	}
	fmt.Printf("post-recovery epoch %d committed.\n", db2.Epoch())
}

// recoveryStages pulls the recovery-stage events out of the flight recorder,
// oldest first, already rendered by the event's own describer.
func recoveryStages(o *nvcaracal.Obs) []string {
	var out []string
	for _, ev := range o.Flight().JSON(0).Events {
		if ev.Type == "recovery-stage" {
			out = append(out, ev.Detail)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvrecover:", err)
	os.Exit(1)
}
