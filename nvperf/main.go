// Command nvperf is the end-to-end benchmark of nvcaracal. One run opens a
// database on a simulated NVMM device, loads one workload, warms up, drives
// a timed phase, crashes one more epoch inside its checkpoint, recovers it,
// and checks every output against the benchmark's own model of the data.
//
//	nvperf --workload ycsb-cold --seed 1 --seconds 6 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// measured with the program's instruments off; with --trace 1 the run turns
// the instruments on (Config.Obs) and prints the per-layer metrics. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"nvcaracal"
	"nvcaracal/internal/metrics"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// procStart is the process's start, the origin of setup_s.
var procStart = time.Now()

// The latency model every run uses (README "Engine settings").
const (
	readLatency  = 60 * time.Nanosecond
	writeLatency = 250 * time.Nanosecond
	fenceLatency = 500 * time.Nanosecond
	cores        = 2
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations: every transaction handed to the program, the
// recovery, and every output check.
type tally struct {
	attempted, failed int64
	correct           bool
	notes             []string
}

// op counts one operation, failed unless ok.
func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(1, format, args...)
	}
}

// fail marks n operations, already counted as attempted, failed.
func (t *tally) fail(n int64, format string, args ...any) {
	t.failed += n
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// check records one output check; a failed check also clears correct.
func (t *tally) check(err error, what string) {
	t.op(err == nil, "check %s: %v", what, err)
	if err != nil {
		t.correct = false
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "ycsb-cold, ycsb-hot-open or tpcc")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 6, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs with the program's instruments on and prints the per-layer metrics")
	)
	flag.Parse()
	w, err := newWorkload(*name, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvperf:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "nvperf: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	// The simulated device's byte images are most of the live heap. At the
	// default GOGC the collector would let as much garbage again pile up
	// on top of them; a lower target keeps the process's memory near its
	// live size on a shared machine.
	debug.SetGCPercent(25)

	t := &tally{correct: true}
	var metrics map[string]metric
	if *trace == 0 {
		r := run(w, *seed, dur, nil, t)
		metrics = r.endToEnd()
	} else {
		metrics = traced(*name, *seed, dur, t)
	}
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "VmHWM") {
				fmt.Fprintln(os.Stderr, "nvperf: peak resident memory", strings.Join(strings.Fields(l)[1:], " "))
			}
		}
	}
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "nvperf: FAILED", n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// engineConfig is the configuration every workload starts from.
func engineConfig() nvcaracal.Config {
	return nvcaracal.Config{
		Cores:            cores,
		NVMMReadLatency:  readLatency,
		NVMMWriteLatency: writeLatency,
		NVMMFenceLatency: fenceLatency,
		Registry:         nvcaracal.NewRegistry(),
	}
}

// runStats is everything one run measured.
type runStats struct {
	setup     time.Duration
	elapsed   time.Duration // the timed phase, ending after WaitDurable
	committed int64
	aborted   int64
	epochs    int64
	commitLat []time.Duration // per epoch (hand-batched) or per txn (open loop)

	devDelta nvm.Stats
	metDelta metrics.Snapshot
	mem      nvcaracal.MemoryBreakdown
	logBytes int64
	rowCount int
	machine  machineDelta

	// Hand-batched runs: the time the generator spent between RunEpoch
	// calls.
	genGaps []time.Duration
	// Open loop: time inside Submit and how late the generator ran.
	submitCalls []time.Duration
	maxLate     time.Duration
	lastBatch   []*nvcaracal.Txn

	recovery time.Duration
	report   *nvcaracal.RecoveryReport

	// Traced runs: instrument snapshots around the timed phase, whose
	// epochs are (epoch0, epoch1].
	epoch0, epoch1   uint64
	attrib0, attrib1 obs.AttribSnapshot
	fence0, fence1   obs.HistSnapshot
	spans            []obs.Span
	flight           []obs.FlightEvent
}

// run performs one full run of w: set-up, timed phase, crash and recovery,
// checks. A non-nil o attaches the program's instruments.
func run(w workload, seed int64, dur time.Duration, o *nvcaracal.Obs, t *tally) *runStats {
	rs := &runStats{}
	cfg := w.config()
	cfg.Obs = o
	db, dev, err := nvcaracal.OpenWithDevice(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvperf: open:", err)
		os.Exit(1)
	}
	rng := rand.New(rand.NewSource(seed))
	m := w.newModel()
	if err := w.load(db); err != nil {
		t.op(false, "load: %v", err)
	}
	for e := 0; e < w.warmupEpochs(); e++ {
		b := w.warmupBatch(db, rng)
		_, err := db.RunEpoch(b)
		t.attempted += int64(len(b))
		if err != nil {
			t.fail(int64(len(b)), "warm-up epoch: %v", err)
			continue
		}
		m.apply(b)
	}
	db.WaitDurable()
	rs.setup = time.Since(procStart)

	met0, dev0, log0 := db.Metrics(), dev.Stats(), db.LogBytesTotal()
	rs.epoch0 = db.Epoch()
	if o != nil {
		rs.attrib0, rs.fence0 = o.Attrib().Snapshot(), o.Device().Fence.Snapshot()
	}
	mach0 := readMachine()
	if w.offeredRate() > 0 {
		runOpenLoop(w, db, rng, m, dur, rs, t)
	} else {
		runHandBatched(w, db, rng, m, dur, rs, t)
	}
	rs.machine = readMachine().sub(mach0)
	rs.devDelta = dev.Stats().Sub(dev0)
	met := db.Metrics()
	rs.metDelta = met.Sub(met0)
	rs.mem = db.Memory()
	rs.logBytes = db.LogBytesTotal() - log0
	rs.rowCount = db.RowCount()
	rs.epoch1 = db.Epoch()
	if o != nil {
		rs.attrib1, rs.fence1 = o.Attrib().Snapshot(), o.Device().Fence.Snapshot()
		rs.spans = o.Tracer().Spans(0)
		rs.flight = o.Flight().Events(0)
	}
	fmt.Fprintf(os.Stderr, "nvperf: machine over the timed phase: %s\n", rs.machine)

	t.check(w.checkVersions(rs.metDelta, rs.committed), "versions")
	t.check(m.check(db), "state after the timed phase")

	crashAndRecover(w, db, dev, cfg, seed, m, rs, t)
	return rs
}

// runHandBatched drives the timed phase as one closed-loop caller that
// assembles each epoch's batch and hands it to RunEpoch, for dur or for
// the workload's fixed number of transactions.
func runHandBatched(w workload, db *nvcaracal.DB, rng *rand.Rand, m model, dur time.Duration, rs *runStats, t *tally) {
	start := time.Now()
	deadline := start.Add(dur)
	last := start
	more := func() bool { return time.Now().Before(deadline) }
	if n := w.timedTxns(); n > 0 {
		more = func() bool { return rs.committed+rs.aborted < n }
	}
	for more() {
		b := w.batch(db, rng)
		t0 := time.Now()
		rs.genGaps = append(rs.genGaps, t0.Sub(last))
		res, err := db.RunEpoch(b)
		last = time.Now()
		t.attempted += int64(len(b))
		if err != nil {
			t.fail(int64(len(b)), "epoch: %v", err)
			continue
		}
		rs.commitLat = append(rs.commitLat, last.Sub(t0))
		rs.committed += int64(res.Committed)
		rs.aborted += int64(res.Aborted)
		rs.epochs++
		m.apply(b)
		rs.lastBatch = b
	}
	db.WaitDurable()
	rs.elapsed = time.Since(start)
}

// submitted is one open-loop submission in flight.
type submitted struct {
	fut *nvcaracal.Future
	due time.Time
	txn *nvcaracal.Txn
}

// orderedTxn is a committed open-loop transaction with its serial position.
type orderedTxn struct {
	epoch, sid uint64
	txn        *nvcaracal.Txn
}

// runOpenLoop drives the timed phase as an open loop: one generator
// submits at a fixed offered rate through a Submitter, and one collector
// waits on the futures. Latency runs from when a transaction was due.
func runOpenLoop(w workload, db *nvcaracal.DB, rng *rand.Rand, m model, dur time.Duration, rs *runStats, t *tally) {
	sub := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{})
	// The buffer holds every submission of a second at the offered rate, so
	// the generator never waits on the collector.
	ch := make(chan submitted, w.offeredRate())
	var order []orderedTxn
	done := make(chan struct{})
	var collectorFailed []string
	go func() {
		defer close(done)
		for s := range ch {
			r := s.fut.Wait()
			rs.commitLat = append(rs.commitLat, time.Since(s.due))
			switch {
			case r.Err != nil:
				collectorFailed = append(collectorFailed, r.Err.Error())
			case r.Committed:
				rs.committed++
				order = append(order, orderedTxn{r.Epoch, r.SID, s.txn})
			default:
				rs.aborted++
			}
		}
	}()

	interval := time.Second / time.Duration(w.offeredRate())
	start := time.Now()
	n := int(dur / interval)
	for i := 0; i < n; i++ {
		txn := w.batch(db, rng)[0]
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > rs.maxLate {
			rs.maxLate = late
		}
		t0 := time.Now()
		fut, err := sub.Submit(txn)
		rs.submitCalls = append(rs.submitCalls, time.Since(t0))
		t.attempted++
		if err != nil {
			t.fail(1, "submit: %v", err)
			continue
		}
		ch <- submitted{fut, due, txn}
	}
	close(ch)
	<-done
	if err := sub.Close(); err != nil {
		t.op(false, "submitter close: %v", err)
	}
	db.WaitDurable()
	rs.elapsed = time.Since(start)
	for _, e := range collectorFailed {
		t.fail(1, "future: %s", e)
	}

	sort.Slice(order, func(i, j int) bool {
		if order[i].epoch != order[j].epoch {
			return order[i].epoch < order[j].epoch
		}
		return order[i].sid < order[j].sid
	})
	txns := make([]*nvcaracal.Txn, len(order))
	epochs := map[uint64]bool{}
	for i, o := range order {
		txns[i] = o.txn
		epochs[o.epoch] = true
	}
	m.apply(txns)
	rs.epochs = int64(len(epochs))
	if len(txns) > 0 {
		k := int(rs.committed / max(rs.epochs, 1))
		rs.lastBatch = txns[len(txns)-max(k, 1):]
	}
}

// crashAndRecover runs one more hand-batched epoch twice from the same
// durable state: once to completion, as the reference, and once crashed
// inside its checkpoint by a device fail-point. The crashed device is then
// recovered (timed) and checked against the reference digest and the model.
func crashAndRecover(w workload, db *nvcaracal.DB, dev *nvcaracal.Device, cfg nvcaracal.Config, seed int64, m model, rs *runStats, t *tally) {
	db.WaitDurable()
	// The snapshot copies the device's three images; collect first so the
	// timed phase's garbage does not sit on top of them.
	runtime.GC()
	snap := dev.Snapshot()

	// Reference: the epoch without a crash. The fence marks locate its
	// checkpoint in the flushed-line sequence.
	batch := w.crashBatch(db, seed)
	dev.TraceFences(true)
	base := dev.Stats().Flushes
	_, err := db.RunEpoch(batch)
	t.attempted += int64(len(batch))
	if err != nil {
		t.fail(int64(len(batch)), "reference epoch: %v", err)
		return
	}
	marks := dev.FenceMarks()
	dev.TraceFences(false)
	refDigest := db.LogicalDigest()
	if len(marks) < 3 {
		t.op(false, "reference epoch issued %d fences, want the log, checkpoint and epoch-record fences", len(marks))
		return
	}
	// The marks are cumulative flushed lines at each fence. The epoch's
	// writes lie between the log fence and the checkpoint fence, the last
	// but one; crash halfway through them.
	failAfter := (marks[len(marks)-3]+marks[len(marks)-2])/2 - base

	// Rewind the device to the durable state before the epoch and attach a
	// fresh engine to it.
	dev.Restore(snap)
	snap = nil
	runtime.GC()
	db1, _, err := nvcaracal.Recover(dev, cfg)
	if err != nil {
		t.op(false, "re-attach before the crashed epoch: %v", err)
		return
	}
	batch = w.crashBatch(db1, seed)
	fired := crashEpoch(db1, dev, batch, failAfter)
	t.attempted += int64(len(batch))
	if !fired {
		t.fail(int64(len(batch)), "fail-point after %d flushed lines did not fire", failAfter)
		return
	}
	dev.Crash(nvcaracal.CrashStrict, seed)

	// Recovery rewrites the device, so each timed attempt starts from a
	// snapshot of the crashed state. The interquartile mean of the
	// workload's recovery rounds is reported, and the last recovered
	// database is checked. A workload may time its recoveries on one OS
	// thread (README "Recovery rounds and threads").
	runtime.GC()
	crashed := dev.Snapshot()
	var times []time.Duration
	var db2 *nvcaracal.DB
	var rep *nvcaracal.RecoveryReport
	rounds, procs := w.recovery()
	if procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	for i := 0; i < rounds; i++ {
		if i > 0 {
			dev.Restore(crashed)
		}
		runtime.GC()
		t0 := time.Now()
		db2, rep, err = nvcaracal.Recover(dev, cfg)
		times = append(times, time.Since(t0))
		t.op(err == nil, "recover: %v", err)
		if err != nil {
			return
		}
	}
	crashed = nil
	fmt.Fprintf(os.Stderr, "nvperf: recoveries %v\n", times)
	rs.recovery = interquartileMean(times)
	rs.report = rep
	m.apply(batch)
	t.check(wantEq("txns replayed", int64(rep.TxnsReplayed), int64(len(batch))), "recovery replayed the crashed epoch")
	t.check(wantEq("logical digest", int64(db2.LogicalDigest()), int64(refDigest)), "recovered digest equals the crash-free digest")
	t.check(m.check(db2), "state after recovery")
}

// crashEpoch runs batch with a fail-point armed after n flushed lines and
// reports whether the injected crash fired.
func crashEpoch(db *nvcaracal.DB, dev *nvcaracal.Device, batch []*nvcaracal.Txn, n int64) (fired bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != nvcaracal.ErrInjectedCrash {
				panic(r)
			}
			fired = true
		}
	}()
	dev.SetFailAfter(n)
	defer dev.SetFailAfter(0)
	// An epoch that returns, with or without an error, was not crashed.
	_, _ = db.RunEpoch(batch)
	return false
}

func wantEq(what string, got, want int64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// endToEnd returns the end-to-end metrics of an untraced run.
func (rs *runStats) endToEnd() map[string]metric {
	committed := float64(max(rs.committed, 1))
	p50, p90 := quantile(rs.commitLat, 0.5), chunkedQuantile(rs.commitLat, 0.9)
	fmt.Fprintf(os.Stderr, "nvperf: %d commit-latency samples, %d committed, %d aborted, %d epochs in %v\n",
		len(rs.commitLat), rs.committed, rs.aborted, rs.epochs, rs.elapsed.Round(time.Millisecond))
	return map[string]metric{
		"setup_s":                  {rs.setup.Seconds(), "s"},
		"throughput_tps":           {float64(rs.committed) / rs.elapsed.Seconds(), "txn/s"},
		"commit_p50_ms":            {ms(p50), "ms"},
		"commit_p90_ms":            {ms(p90), "ms"},
		"recovery_s":               {rs.recovery.Seconds(), "s"},
		"nvmm_write_bytes_per_txn": {float64(rs.devDelta.Flushes*64) / committed, "B/txn"},
		"nvmm_read_bytes_per_txn":  {float64(rs.devDelta.LineReads*64) / committed, "B/txn"},
		"dram_mib":                 {mib(rs.mem.DRAMTotal()), "MiB"},
		"nvmm_mib":                 {mib(rs.mem.NVMMTotal()), "MiB"},
	}
}

// quantile returns the q-quantile of ds (nearest rank on a sorted copy).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// interquartileMean returns the mean of the middle half of ds, sorted.
// Where the machine's speed switches during a run, it gives the mix of the
// two speeds, where a median would jump from one to the other.
func interquartileMean(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return sum / time.Duration(len(mid))
}

// tailChunks is how many consecutive stretches of a run's samples the tail
// percentile is taken over.
const tailChunks = 5

// chunkedQuantile returns the median, over tailChunks consecutive stretches
// of ds in the order measured, of each stretch's q-quantile. A burst of
// interference from outside the process moves one stretch's tail, not the
// median of all of them.
func chunkedQuantile(ds []time.Duration, q float64) time.Duration {
	var qs []time.Duration
	for i := 0; i < tailChunks; i++ {
		if c := ds[i*len(ds)/tailChunks : (i+1)*len(ds)/tailChunks]; len(c) > 0 {
			qs = append(qs, quantile(c, q))
		}
	}
	return quantile(qs, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mib(b int64) float64        { return float64(b) / (1 << 20) }
