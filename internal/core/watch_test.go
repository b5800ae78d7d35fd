package core

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// TestWatchdogCommitterStallIntegration is the end-to-end anomaly-detection
// path: a pipelined engine with a commit-stall fail-point armed on the
// device, a watchdog driven synchronously with synthetic timestamps, and an
// incident file whose evidence must bracket the stall — the commit handoff
// entered the flight recorder before the trigger, and the durable publish
// lands after the committer finally drains.
func TestWatchdogCommitterStallIntegration(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(obs.Config{Hists: true, TxnTrace: true, TxnSampleEvery: 1, Cores: 2})
	opts := testOpts(2)
	opts.Pipeline = true
	opts.Obs = o
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}

	mustRun(t, db, []*Txn{mkInsert(1, []byte("one")), mkInsert(2, []byte("two"))})
	mustRun(t, db, []*Txn{mkRMW(1, 'a')})
	db.WaitDurable()

	// Arm the stall: every commit fence now busy-waits, so the background
	// committer of the next epoch visibly falls behind.
	const stall = time.Second
	dev.SetCommitStall(stall)
	start := time.Now()
	mustRun(t, db, []*Txn{mkSet(2, []byte("v2"))})

	if db.Epoch() <= db.DurableEpoch() {
		t.Fatalf("stalled committer already durable: epoch %d durable %d", db.Epoch(), db.DurableEpoch())
	}

	// Wait for the committer to reach the stalled epoch's persist-final
	// fence. The engine records the EvFence just before issuing it, so from
	// here on the committer is inside (or about to enter) the stall. Yield
	// rather than sleep: at GOMAXPROCS=1 the committer runs only when this
	// goroutine gives up the CPU.
	for stalledEpoch := db.Epoch(); !persistFinalFenced(o, stalledEpoch); {
		runtime.Gosched()
	}

	// Drive the watchdog with a synthetic 3s gap while the committer is
	// mid-stall: the real window is the stall duration, the detector math
	// sees a 3s-old durable epoch.
	wd := o.NewWatchdog(obs.WatchConfig{
		MaxDurableLag: 100, // isolate the stall detector
		StallAfter:    2 * time.Second,
		IncidentDir:   dir,
		Cooldown:      time.Hour,
	}, obs.WatchTargets{Epoch: db.Epoch, DurableEpoch: db.DurableEpoch})
	t1 := time.Now()
	wd.Tick(t1)
	wd.Tick(t1.Add(3 * time.Second))

	incs := wd.Incidents()
	if len(incs) != 1 || incs[0].Reason != obs.ReasonCommitterStall {
		t.Fatalf("incidents = %+v, want one committer-stall", incs)
	}

	// Let the committer drain and confirm nothing was lost to the stall.
	// Disarm only after the drain: the device reads the stall when a fence
	// runs, so a persist-final fence issued after the disarm would not be
	// stalled at all.
	db.WaitDurable()
	dev.SetCommitStall(0)
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("commit stall not charged: epoch drained in %v < %v", elapsed, stall)
	}
	if db.DurableEpoch() != db.Epoch() {
		t.Fatalf("durable epoch %d never caught up to %d", db.DurableEpoch(), db.Epoch())
	}
	wantGet(t, db, 2, []byte("v2"))

	// The incident file must parse back with the evidence snapshot.
	data, err := os.ReadFile(incs[0].File)
	if err != nil {
		t.Fatal(err)
	}
	var inc obs.Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		t.Fatalf("incident file is not valid JSON: %v", err)
	}
	if inc.Reason != obs.ReasonCommitterStall || inc.Epoch <= inc.DurableEpoch {
		t.Fatalf("incident evidence inconsistent: %+v", inc)
	}
	if inc.EpochHist == nil || inc.EpochHist.Count == 0 {
		t.Fatal("incident lacks the epoch histogram")
	}
	if inc.Breakdown == nil || inc.Breakdown.Spans == 0 {
		t.Fatal("incident lacks the txn breakdown")
	}
	if len(inc.Flight) == 0 {
		t.Fatal("incident lacks the flight tail")
	}

	// Flight events bracket the stall: the handoff to the committer precedes
	// the watchdog trigger, and the durable publish of the stalled epoch
	// follows it.
	var handoffTS, triggerTS, publishTS int64
	stalledEpoch := db.Epoch()
	for _, e := range o.Flight().Events(0) {
		switch e.Type {
		case obs.EvCommitHandoff:
			if e.Epoch == stalledEpoch && handoffTS == 0 {
				handoffTS = e.TS
			}
		case obs.EvWatchTrigger:
			triggerTS = e.TS
		case obs.EvDurablePublish:
			if e.Epoch == stalledEpoch {
				publishTS = e.TS
			}
		}
	}
	if handoffTS == 0 || triggerTS == 0 || publishTS == 0 {
		t.Fatalf("flight missing bracketing events: handoff=%d trigger=%d publish=%d", handoffTS, triggerTS, publishTS)
	}
	if !(handoffTS < triggerTS && triggerTS < publishTS) {
		t.Fatalf("flight events out of order: handoff=%d trigger=%d publish=%d", handoffTS, triggerTS, publishTS)
	}

	// The stalled epoch completed with a visible durable lag.
	lag := o.DurableLagCounts()
	var lagged uint64
	for i := 1; i < len(lag); i++ {
		lagged += lag[i]
	}
	if lagged == 0 {
		t.Fatalf("durable-lag distribution never left bucket 0: %v", lag)
	}
}

// persistFinalFenced reports whether the flight recorder holds the
// persist-final EvFence of epoch.
func persistFinalFenced(o *obs.Obs, epoch uint64) bool {
	for _, e := range o.Flight().Events(0) {
		if e.Type == obs.EvFence && e.Epoch == epoch && e.A == int64(obs.CausePersistFinal) {
			return true
		}
	}
	return false
}

// TestTxnLifecycleBreakdownIntegration runs observed epochs with 1-in-1
// sampling and checks the tail-latency decomposition is internally
// consistent: every published span carries a positive total, phase sums
// reconstruct span totals, and the sampled count matches the executed
// transactions.
func TestTxnLifecycleBreakdownIntegration(t *testing.T) {
	o := obs.New(obs.Config{Hists: true, TxnTrace: true, TxnSampleEvery: 1, Cores: 2})
	opts := pipelineOpts(2)
	opts.Obs = o
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, db, []*Txn{mkInsert(1, []byte("one")), mkInsert(2, []byte("two"))})
	mustRun(t, db, []*Txn{mkRMW(1, 'a'), mkRMW(2, 'b'), mkRMW(1, 'c')})
	db.WaitDurable()

	tt := o.TxnTrace()
	if got := tt.PublishedCount(); got != 5 {
		t.Fatalf("published %d spans at 1-in-1 over 5 txns", got)
	}
	spans := tt.Spans()
	if len(spans) != 5 {
		t.Fatalf("retained %d spans, want 5", len(spans))
	}
	for _, s := range spans {
		if s.Total() <= 0 {
			t.Fatalf("span with non-positive total: %+v", s)
		}
		var sum int64
		for _, d := range s.Phases() {
			if d < 0 {
				t.Fatalf("negative phase in %+v", s)
			}
			sum += d
		}
		if sum != s.Total() {
			t.Fatalf("phases sum to %d, total %d: %+v", sum, s.Total(), s)
		}
		if s.Phases()[obs.TxnExecute] <= 0 {
			t.Fatalf("executed span with zero execute phase: %+v", s)
		}
		if s.Epoch == 0 {
			t.Fatalf("span never assigned an epoch: %+v", s)
		}
	}
	b := obs.Breakdown(spans)
	if b.Spans != 5 {
		t.Fatalf("breakdown folded %d spans, want 5", b.Spans)
	}
	if b.Total.MaxNS <= 0 {
		t.Fatalf("breakdown total empty: %+v", b.Total)
	}
	// Hand-batched RunEpoch stamps no submit queue: the queue phase must
	// read zero, not garbage.
	if q := b.Phases[obs.TxnQueue]; q.MaxNS != 0 {
		t.Fatalf("hand-batched spans accrued queue time: %+v", q)
	}
	if e := b.Phases[obs.TxnExecute]; e.P50NS <= 0 {
		t.Fatalf("execute phase percentile empty: %+v", e)
	}
}
