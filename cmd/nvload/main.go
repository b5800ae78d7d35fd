// Command nvload loads one of the built-in workloads into an NVCaracal
// instance, drives it for a number of epochs, and prints throughput,
// engine metrics, and the memory breakdown — a generic driver for
// exploring configurations outside the fixed paper experiments.
//
// Usage:
//
//	nvload -workload ycsb -rows 50000 -contention high -epochs 10
//	nvload -workload smallbank -mode hybrid
//	nvload -workload tpcc -warehouses 4 -epoch-txns 2000
//	nvload -workload ycsb -submitters 8        # concurrent group-commit mode
//
// With -submitters N the measured phase is driven through the concurrent
// group-commit front-end: N client goroutines call Submit and the batch
// former closes epochs at -epoch-txns transactions or -submit-max-delay,
// instead of a single caller hand-assembling each epoch.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"nvcaracal"
	"nvcaracal/internal/obs"
	"nvcaracal/internal/prof"
	"nvcaracal/internal/workload/smallbank"
	"nvcaracal/internal/workload/tpcc"
	"nvcaracal/internal/workload/ycsb"
)

func main() {
	var (
		workload   = flag.String("workload", "ycsb", "ycsb, ycsb-smallrow, smallbank, or tpcc")
		rows       = flag.Int("rows", 20_000, "YCSB rows / SmallBank customers")
		warehouses = flag.Int("warehouses", 2, "TPC-C warehouses")
		contention = flag.String("contention", "low", "low, med (YCSB only), or high")
		mode       = flag.String("mode", "nvcaracal", "nvcaracal, no-logging, hybrid, all-nvmm, all-dram")
		epochTxns  = flag.Int("epoch-txns", 1000, "transactions per epoch")
		epochs     = flag.Int("epochs", 5, "measured epochs")
		pipeline   = flag.Bool("pipeline", false, "depth-1 epoch pipeline: overlap the entire checkpoint (staging, counters, fence, record) with the next epoch")
		cores      = flag.Int("cores", 0, "worker cores (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		submitters = flag.Int("submitters", 0, "concurrent submitter goroutines (0 = hand-batched epochs)")
		submitLag  = flag.Duration("submit-max-delay", 2*time.Millisecond, "batch former max-latency deadline (with -submitters)")
		readLat    = flag.Duration("nvmm-read-latency", 60*time.Nanosecond, "simulated NVMM read latency per line")
		writeLat   = flag.Duration("nvmm-write-latency", 250*time.Nanosecond, "simulated NVMM write latency per line")
		obsAddr    = flag.String("obs-addr", "", "serve /debug/nvcaracal/{stats,trace,attrib} on this address (e.g. :8077); also enables instrumentation")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run's epoch phases to this file")
		attribOut  = flag.String("attrib-out", "", "write the NVMM access-attribution JSON (per-cause counters, heatmap, write-amp) to this file at exit")
		serveAfter = flag.Duration("serve-after", 0, "keep the -obs-addr server up this long after the run (for scraping)")

		txnSample   = flag.Int("txn-sample", 0, "sample 1-in-N transactions for lifecycle tracing (0 = off; also enables instrumentation)")
		watch       = flag.Bool("watch", false, "arm the anomaly watchdog (durable lag, epoch outliers, committer/fence stalls)")
		watchStall  = flag.Duration("watch-stall-after", 0, "watchdog committer-stall threshold (0 = default 2s)")
		watchEvery  = flag.Duration("watch-interval", 0, "watchdog evaluation interval (0 = default 250ms)")
		incidentDir = flag.String("incident-dir", "", "directory for watchdog incident JSON files (with -watch)")
		commitStall = flag.Duration("inject-commit-stall", 0, "fault injection: stall every commit (persist-final) fence by this much during the measured phase")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the measured phase to this file (read with nvprof or go tool pprof)")
		profEpochs = flag.Int("prof-epochs", 0, "with -cpuprofile: bound the capture to the first N measured epochs instead of the whole phase")
		rtTrace    = flag.String("runtime-trace", "", "write a runtime execution trace of the measured phase to this file (view with go tool trace; phase regions included)")
		mutexFrac  = flag.Int("mutex-profile-frac", 0, "runtime mutex profile fraction (for /debug/nvcaracal/pprof/mutex)")
		blockRate  = flag.Int("block-profile-rate", 0, "runtime block profile rate in ns (for /debug/nvcaracal/pprof/block)")
	)
	flag.Parse()

	storageMode, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}

	cfg := nvcaracal.Config{
		Cores:            *cores,
		Mode:             storageMode,
		Pipeline:         *pipeline,
		NVMMReadLatency:  *readLat,
		NVMMWriteLatency: *writeLat,
		Registry:         nvcaracal.NewRegistry(),
	}
	// The profiler rides along whenever anything wants profiles: the debug
	// server (pprof endpoints), explicit capture flags, or the watchdog
	// (incident profile attachments).
	var pr *nvcaracal.Profiler
	if *obsAddr != "" || *cpuProfile != "" || *rtTrace != "" || *watch {
		pr = nvcaracal.NewProfiler(nvcaracal.ProfConfig{
			MutexFraction:    *mutexFrac,
			BlockProfileRate: *blockRate,
		})
		cfg.Prof = pr
	}
	if *obsAddr != "" || *traceOut != "" || *attribOut != "" || *txnSample > 0 || *watch {
		ocfg := nvcaracal.ObsConfig{
			Hists:  true,
			Trace:  true,
			Device: true,
			Attrib: *obsAddr != "" || *attribOut != "" || *watch,
			Cores:  *cores,
		}
		if *txnSample > 0 {
			ocfg.TxnTrace = true
			ocfg.TxnSampleEvery = *txnSample
		}
		if *watch {
			ocfg.Watch = &nvcaracal.WatchConfig{
				IncidentDir:    *incidentDir,
				StallAfter:     *watchStall,
				Interval:       *watchEvery,
				CaptureProfile: pr.CaptureCPUBytes,
			}
		}
		cfg.Obs = nvcaracal.NewObs(ocfg)
	}
	if storageMode == nvcaracal.ModeAllDRAM {
		cfg.NVMMReadLatency, cfg.NVMMWriteLatency = 0, 0
	}

	rng := rand.New(rand.NewSource(*seed))
	var gen func(db *nvcaracal.DB) []*nvcaracal.Txn
	var loadBatches [][]*nvcaracal.Txn

	switch *workload {
	case "ycsb", "ycsb-smallrow":
		wcfg := ycsb.DefaultConfig(*rows)
		if *workload == "ycsb-smallrow" {
			wcfg = ycsb.SmallRowConfig(*rows)
		}
		switch *contention {
		case "low":
			wcfg.HotOps = 0
		case "med":
			wcfg.HotOps = 4
		case "high":
			wcfg.HotOps = 7
		default:
			fatal(fmt.Errorf("unknown contention %q", *contention))
		}
		w, err := ycsb.New(wcfg)
		if err != nil {
			fatal(err)
		}
		w.Register(cfg.Registry)
		cfg.RowsPerCore = int64(*rows)*2 + 8192
		cfg.ValuesPerCore = int64(*rows)*3 + 8192
		loadBatches = w.LoadBatches(*epochTxns * 4)
		gen = func(*nvcaracal.DB) []*nvcaracal.Txn { return w.GenBatch(rng, *epochTxns) }
	case "smallbank":
		hot := *rows / 18
		if *contention == "high" {
			hot = max(1, *rows/1000)
		}
		w, err := smallbank.New(smallbank.DefaultConfig(*rows, hot))
		if err != nil {
			fatal(err)
		}
		w.Register(cfg.Registry)
		cfg.RowSize = 128
		cfg.ValueSize = 64
		cfg.RowsPerCore = int64(*rows)*6 + 8192
		cfg.ValuesPerCore = 8192
		loadBatches = w.LoadBatches(*epochTxns * 4)
		gen = func(*nvcaracal.DB) []*nvcaracal.Txn { return w.GenBatch(rng, *epochTxns) }
	case "tpcc":
		wh := *warehouses
		if *contention == "high" {
			wh = 1
		}
		wcfg := tpcc.DefaultConfig(wh)
		w, err := tpcc.New(wcfg)
		if err != nil {
			fatal(err)
		}
		w.Register(cfg.Registry)
		cfg.Counters = wcfg.RequiredCounters()
		cfg.RevertOnRecovery = true
		base := wcfg.Items + wh*(1+wcfg.Items) + wh*wcfg.Districts*(2+2*wcfg.CustomersPerDistrict)
		cfg.RowsPerCore = int64(base) + int64(*epochs+2)*int64(*epochTxns)*8 + 8192
		cfg.ValuesPerCore = 8192
		loadBatches = w.LoadBatches(*epochTxns * 4)
		gen = func(db *nvcaracal.DB) []*nvcaracal.Txn { return w.GenBatch(rng, db, *epochTxns) }
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	db, err := nvcaracal.Open(cfg)
	if err != nil {
		fatal(err)
	}
	if *obsAddr != "" {
		h := nvcaracal.NewObsHandler(cfg.Obs)
		h.AddSource("engine", func() any { return db.Metrics() })
		h.AddSource("memory", func() any { return db.Memory() })
		h.AddSource("device", func() any { return db.Device().Stats() })
		h.PublishExpvar("nvcaracal")
		mux := http.NewServeMux()
		mux.Handle("/debug/nvcaracal/", h)
		// More specific pattern: pprof endpoints win over the obs prefix.
		mux.Handle(prof.PprofPath, nvcaracal.NewProfHandler(pr))
		mux.Handle("/debug/vars", expvar.Handler())
		go func() {
			if err := http.ListenAndServe(*obsAddr, mux); err != nil {
				fatal(fmt.Errorf("obs server: %w", err))
			}
		}()
		fmt.Printf("obs: serving http://%s%s and %s\n", *obsAddr, obs.StatsPath, prof.PprofPath)
	}
	fmt.Printf("loading %s (%d batches)...\n", *workload, len(loadBatches))
	loadStart := time.Now()
	for _, b := range loadBatches {
		if _, err := db.RunEpoch(b); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("loaded %d rows in %v\n", db.RowCount(), time.Since(loadStart).Round(time.Millisecond))

	// Fault injection and the watchdog arm after the load phase so they see
	// only the measured epochs.
	if *commitStall > 0 {
		db.Device().SetCommitStall(*commitStall)
		fmt.Printf("inject: stalling every commit fence by %v\n", *commitStall)
	}
	var wd *nvcaracal.Watchdog
	if *watch {
		wd = cfg.Obs.StartWatch(nvcaracal.WatchTargets{
			Epoch:        db.Epoch,
			DurableEpoch: db.DurableEpoch,
		})
		fmt.Printf("watch: armed (incidents -> %q)\n", *incidentDir)
	}

	// Profile captures bracket the measured phase only: the load phase and
	// reporting tail would otherwise dominate short runs.
	var profWG sync.WaitGroup
	var profFiles []*os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if *profEpochs > 0 {
			// Windowed: a background capture bounded by the committed-epoch
			// gauge, joined after the run.
			profWG.Add(1)
			go func() {
				defer profWG.Done()
				win, err := pr.CaptureCPUEpochs(f, *profEpochs, 10*time.Minute)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "nvload: cpu profile:", err)
					return
				}
				fmt.Printf("prof: wrote %s (epochs %d..%d, %v)\n",
					*cpuProfile, win.StartEpoch, win.EndEpoch, win.Elapsed.Round(time.Millisecond))
			}()
		} else {
			if err := pr.StartCPU(f); err != nil {
				fatal(fmt.Errorf("cpu profile: %w", err))
			}
			profFiles = append(profFiles, f)
		}
	}
	var traceFile *os.File
	if *rtTrace != "" {
		f, err := os.Create(*rtTrace)
		if err != nil {
			fatal(err)
		}
		if err := pr.StartTrace(f); err != nil {
			fatal(fmt.Errorf("runtime trace: %w", err))
		}
		traceFile = f
	}

	var committed, aborted int
	var total time.Duration
	if *submitters > 0 {
		committed, aborted, total = runSubmitters(db, gen, *submitters, *epochs, *epochTxns, *submitLag)
	} else {
		for e := 0; e < *epochs; e++ {
			batch := gen(db)
			start := time.Now()
			res, err := db.RunEpoch(batch)
			if err != nil {
				fatal(err)
			}
			d := time.Since(start)
			total += d
			committed += res.Committed
			aborted += res.Aborted
			fmt.Printf("epoch %d: %d committed, %d aborted, %v (log %v, init %v, exec %v, sync %v)\n",
				res.Epoch, res.Committed, res.Aborted, d.Round(time.Microsecond),
				res.LogTime.Round(time.Microsecond), res.InitTime.Round(time.Microsecond),
				res.ExecTime.Round(time.Microsecond), res.SyncTime.Round(time.Microsecond))
		}
	}

	// With -pipeline the last epoch's commit may still be in flight; drain
	// it so the reported device stats are final (no-op otherwise).
	db.WaitDurable()
	if len(profFiles) > 0 {
		pr.StopCPU()
		for _, f := range profFiles {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("prof: wrote %s\n", *cpuProfile)
	}
	profWG.Wait()
	if traceFile != nil {
		pr.StopTrace()
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("prof: wrote %s\n", *rtTrace)
	}
	if wd != nil {
		// One last synchronous evaluation so short runs still get their
		// verdict, then stop the background loop.
		wd.Tick(time.Now())
		wd.Stop()
	}

	fmt.Printf("\nthroughput: %.0f txns/s (%d committed, %d aborted in %v)\n",
		float64(committed+aborted)/total.Seconds(), committed, aborted, total.Round(time.Millisecond))

	m := db.Metrics()
	fmt.Printf("versions: %d transient (DRAM), %d persistent (NVMM) — %.1f%% absorbed by DRAM\n",
		m.TransientVersions, m.PersistentVersions, 100*m.TransientShare())
	fmt.Printf("cache: %d hits, %d misses, %d entries; GC: %d minor, %d major\n",
		m.CacheHits, m.CacheMisses, m.CacheEntries, m.MinorGCs, m.MajorGCs)

	mem := db.Memory()
	fmt.Printf("memory: DRAM %.1f MiB (index %.1f, transient %.1f, cache %.1f) | NVMM %.1f MiB (rows %.1f, values %.1f, log %.1f)\n",
		mib(mem.DRAMTotal()), mib(mem.IndexBytes), mib(mem.TransientPeak), mib(mem.CacheBytes),
		mib(mem.NVMMTotal()), mib(mem.RowBytes), mib(mem.ValueBytes), mib(mem.LogBytes))

	st := db.Device().Stats()
	fmt.Printf("device: %s\n", st)
	if st.Fences > 0 {
		fmt.Printf("device: %d lines committed over %d fences (%.0f lines/fence amortization)\n",
			st.LinesFenced, st.Fences, float64(st.LinesFenced)/float64(st.Fences))
	}

	if o := cfg.Obs; o != nil {
		if d := o.Device(); d != nil {
			fmt.Printf("obs: fence p99 %v, fence stall total %v\n",
				time.Duration(d.Fence.Snapshot().Percentile(99)),
				time.Duration(d.FenceStallNanos()))
		}
		ep := o.EpochSnapshot()
		fmt.Printf("obs: epoch p50 %v p99 %v over %d epochs\n",
			time.Duration(ep.Percentile(50)), time.Duration(ep.Percentile(99)), ep.Count)
		if tt := o.TxnTrace(); tt != nil {
			b := obs.Breakdown(tt.Spans())
			fmt.Printf("txns: %d spans retained (%d sampled 1-in-%d, %d published)\n",
				b.Spans, tt.SampledCount(), tt.SampleEvery(), tt.PublishedCount())
			for _, p := range append(b.Phases, b.Total) {
				fmt.Printf("txns: %-11s mean %-12v p50 %-12v p99 %-12v max %v\n",
					p.Phase, time.Duration(p.MeanNS).Round(time.Microsecond),
					time.Duration(p.P50NS).Round(time.Microsecond),
					time.Duration(p.P99NS).Round(time.Microsecond),
					time.Duration(p.MaxNS).Round(time.Microsecond))
			}
		}
		if *traceOut != "" {
			if err := writeTrace(o, *traceOut); err != nil {
				fatal(err)
			}
			fmt.Printf("obs: wrote trace to %s (load in https://ui.perfetto.dev)\n", *traceOut)
		}
		if a := o.Attrib(); a != nil {
			j := a.JSON()
			cum := j.WriteAmp.Cumulative
			fmt.Printf("attrib: %d line write-backs (%d from row traffic), write-amp %.2fx, persist-all ratio %.2fx\n",
				cum.TotalLines, cum.RowLines, cum.WriteAmp, cum.PersistAllRatio)
			if *attribOut != "" {
				if err := writeAttrib(j, *attribOut); err != nil {
					fatal(err)
				}
				fmt.Printf("attrib: wrote %s\n", *attribOut)
			}
		}
	}
	if wd != nil {
		incs := wd.Incidents()
		fmt.Printf("watch: %d incident(s)\n", len(incs))
		for _, inc := range incs {
			loc := inc.File
			if loc == "" {
				loc = "(not written)"
			}
			fmt.Printf("watch: [%s] %s — %s\n", inc.Reason, inc.Detail, loc)
		}
	}
	if *obsAddr != "" && *serveAfter > 0 {
		fmt.Printf("obs: serving for another %v...\n", *serveAfter)
		time.Sleep(*serveAfter)
	}
}

// writeTrace exports the retained epoch-phase spans — and, when txn tracing
// is on, the sampled transaction lifecycles — as Chrome trace JSON.
func writeTrace(o *nvcaracal.Obs, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if tt := o.TxnTrace(); tt != nil {
		werr = obs.WriteChromeTraceWithTxns(f, o.Tracer().Spans(0), tt.Spans())
	} else {
		werr = obs.WriteChromeTrace(f, o.Tracer().Spans(0))
	}
	if werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// writeAttrib exports the attribution payload as indented JSON.
func writeAttrib(j *obs.AttribJSON, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(j); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSubmitters drives the measured phase through the group-commit
// front-end: the workload's epochs are pre-generated (generation is the
// client side), split round-robin across n submitter goroutines, and
// submitted concurrently. Returns commit/abort counts and the measured
// wall-clock.
func runSubmitters(db *nvcaracal.DB, gen func(*nvcaracal.DB) []*nvcaracal.Txn,
	n, epochs, epochTxns int, maxDelay time.Duration) (committed, aborted int, total time.Duration) {
	var txns []*nvcaracal.Txn
	for e := 0; e < epochs; e++ {
		txns = append(txns, gen(db)...)
	}
	fmt.Printf("submitting %d txns from %d goroutines (batch cap %d, max delay %v)\n",
		len(txns), n, epochTxns, maxDelay)

	epochBase := db.Epoch()
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: epochTxns,
		MaxDelay: maxDelay,
	})
	futs := make([]*nvcaracal.Future, len(txns))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(txns); i += n {
				f, err := s.Submit(txns[i])
				if err != nil {
					fatal(err)
				}
				futs[i] = f
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		fatal(err)
	}
	total = time.Since(start)

	var failed int
	for _, f := range futs {
		switch r := f.Wait(); {
		case r.Err != nil:
			failed++
		case r.Committed:
			committed++
		default:
			aborted++
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d submissions failed", failed))
	}
	used := db.Epoch() - epochBase
	fmt.Printf("group commit: %d epochs used (%.1f txns/epoch), mean epoch %v\n",
		used, float64(len(txns))/float64(max(1, int(used))),
		(total / time.Duration(max(1, int(used)))).Round(time.Microsecond))
	return committed, aborted, total
}

func parseMode(s string) (nvcaracal.StorageMode, error) {
	switch s {
	case "nvcaracal":
		return nvcaracal.ModeNVCaracal, nil
	case "no-logging":
		return nvcaracal.ModeNoLogging, nil
	case "hybrid":
		return nvcaracal.ModeHybrid, nil
	case "all-nvmm":
		return nvcaracal.ModeAllNVMM, nil
	case "all-dram":
		return nvcaracal.ModeAllDRAM, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvload:", err)
	os.Exit(1)
}
