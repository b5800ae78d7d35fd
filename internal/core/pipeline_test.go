package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// The depth-1 epoch pipeline (Options.Pipeline) runs epoch N's commit —
// counters, parallel pool staging, index journal, checkpoint fence, epoch
// record — on a background committer while the caller runs epoch N+1;
// without it the same commitEpoch runs inline (depth 0). These tests pin
// the pipeline's contract: logical-state equivalence with the inline
// commit, the staging-token and commit-join handoffs never reordering
// durability, recovery after WaitDurable, and an injected crash inside the
// committer surfacing (stickily) at the next barrier without stranding the
// next epoch on a staging token.

func pipelineOpts(cores int) Options {
	opts := testOpts(cores)
	opts.Pipeline = true
	return opts
}

// pipelineBatch exercises the allocator paths the pipeline overlaps:
// inserts (insertStep allocation behind the staging token), updates of
// pooled values (dual-version rewrites feeding major GC), and deletes
// (ring frees the committer stages and the next epoch adopts).
func pipelineBatch(e int) []*Txn {
	val := func(k uint64, tag byte) []byte {
		v := make([]byte, 200) // pooled (beyond the inline half), so GC runs
		v[0], v[1], v[2] = byte(k), byte(k>>8), tag
		return v
	}
	var b []*Txn
	for i := 0; i < 12; i++ {
		k := uint64(e*100 + i)
		b = append(b, mkInsert(k, val(k, byte(e))))
	}
	if e > 0 {
		for i := 0; i < 8; i++ {
			k := uint64((e-1)*100 + i)
			b = append(b, mkSet(k, val(k, byte(e)+1)))
		}
		for i := 8; i < 10; i++ {
			b = append(b, mkDelete(uint64((e-1)*100+i)))
		}
	}
	return b
}

// insertBatch is twenty fresh-key inserts: epochs built from it are
// shape-identical (same txn count and value sizes, no GC), so they issue
// identical flush sequences.
func insertBatch(e int) []*Txn {
	var b []*Txn
	for i := 0; i < 20; i++ {
		k := uint64(e*100 + i)
		b = append(b, mkInsert(k, []byte{byte(k), byte(k >> 8), byte(e)}))
	}
	return b
}

// TestPipelineMatchesSerialState is the differential test between the two
// depths of commitEpoch: inline (depth 0) and on the background committer
// (depth 1) must reach the same logical state and durable epoch after every
// epoch, and recover to the same state after a crash. The index-journal
// cases use a journal small enough to compact repeatedly, which the
// checkpoint runs before the counter stores at either depth.
func TestPipelineMatchesSerialState(t *testing.T) {
	const epochs = 14
	for _, cores := range []int{1, 4} {
		for _, persistIndex := range []bool{false, true} {
			t.Run(fmt.Sprintf("cores=%d/persistIndex=%v", cores, persistIndex), func(t *testing.T) {
				opts := testOpts(cores)
				if persistIndex {
					opts = testOptsJournal(cores, 4096)
				}
				popts := opts
				popts.Pipeline = true
				serialDev := nvm.New(opts.Layout.TotalBytes())
				serial, err := Open(serialDev, opts)
				if err != nil {
					t.Fatal(err)
				}
				pipeDev := nvm.New(popts.Layout.TotalBytes())
				pipe, err := Open(pipeDev, popts)
				if err != nil {
					t.Fatal(err)
				}
				compactions := 0
				for e := 0; e < epochs; e++ {
					var room int64
					if persistIndex {
						room = serial.idxLog.Remaining()
					}
					serial.CounterAdd(e%2, uint64(e+1))
					pipe.CounterAdd(e%2, uint64(e+1))
					mustRun(t, serial, pipelineBatch(e))
					mustRun(t, pipe, pipelineBatch(e))
					pipe.WaitDurable()
					if sd, pd := serial.LogicalDigest(), pipe.LogicalDigest(); sd != pd {
						t.Fatalf("epoch %d: pipeline digest %016x != serial %016x", e+1, pd, sd)
					}
					if sd, pd := serial.DurableEpoch(), pipe.DurableEpoch(); sd != pd {
						t.Fatalf("epoch %d: pipeline durable epoch %d != serial %d", e+1, pd, sd)
					}
					if persistIndex && serial.idxLog.Remaining() > room {
						compactions++
					}
				}
				if persistIndex && compactions < 2 {
					t.Fatalf("journal compacted %d times, want at least 2", compactions)
				}
				want := serial.LogicalDigest()
				for _, side := range []struct {
					name string
					dev  *nvm.Device
					opts Options
				}{{"serial", serialDev, opts}, {"pipeline", pipeDev, popts}} {
					side.dev.Crash(nvm.CrashStrict, 0)
					rdb, rep, err := Recover(side.dev, side.opts)
					if err != nil {
						t.Fatalf("%s: %v", side.name, err)
					}
					if persistIndex && !rep.UsedIndexJournal {
						t.Errorf("%s: recovery scanned instead of replaying the journal", side.name)
					}
					if got := rdb.LogicalDigest(); got != want {
						t.Errorf("%s: recovered digest %016x != %016x", side.name, got, want)
					}
					if err := rdb.CheckInvariants(); err != nil {
						t.Errorf("%s: %v", side.name, err)
					}
				}
			})
		}
	}
}

func TestPipelineDurableEpochLagsAtMostOne(t *testing.T) {
	opts := pipelineOpts(2)
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5; e++ {
		mustRun(t, db, pipelineBatch(e))
		ep, dur := db.Epoch(), db.DurableEpoch()
		if dur > ep || ep-dur > 1 {
			t.Fatalf("epoch %d: durable epoch %d out of [epoch-1, epoch]", ep, dur)
		}
	}
	db.WaitDurable()
	if ep, dur := db.Epoch(), db.DurableEpoch(); dur != ep {
		t.Fatalf("after WaitDurable: durable epoch %d != epoch %d", dur, ep)
	}
}

func TestPipelineRecoversAfterWaitDurable(t *testing.T) {
	opts := pipelineOpts(2)
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		mustRun(t, db, pipelineBatch(e))
	}
	db.WaitDurable()
	want := db.LogicalDigest()

	snap := dev.Snapshot()
	d2 := snap.NewDevice()
	d2.Crash(nvm.CrashStrict, 0)
	rdb, rep, err := Recover(d2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointEpoch != db.Epoch() {
		t.Fatalf("recovered checkpoint %d, want %d", rep.CheckpointEpoch, db.Epoch())
	}
	if got := rdb.LogicalDigest(); got != want {
		t.Fatalf("recovered digest %016x != %016x", got, want)
	}
	if err := rdb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMidFlightRecovery crashes the device while epoch N's commit
// genuinely overlaps epoch N+1: after submitting N+1 without draining, the
// snapshot is taken post-WaitDurable and recovery must land on N+1 exactly.
func TestPipelineMidFlightRecovery(t *testing.T) {
	opts := pipelineOpts(1)
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		mustRun(t, db, pipelineBatch(e))
	}
	// Two back-to-back epochs with no barrier between: 3's checkpoint runs
	// behind 4's front.
	mustRun(t, db, pipelineBatch(3))
	mustRun(t, db, pipelineBatch(4))
	db.WaitDurable()
	want := db.LogicalDigest()

	rdb, rep, err := Recover(dev.Snapshot().NewDevice(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rdb.LogicalDigest(); got != want {
		t.Fatalf("recovered digest %016x != %016x (ckpt=%d replayed=%d)",
			got, want, rep.CheckpointEpoch, rep.ReplayedEpoch)
	}
}

func TestPipelineCrashInCommitSurfacesAtBarrier(t *testing.T) {
	opts := pipelineOpts(1)
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, db, insertBatch(0))
	db.WaitDurable()

	// Shape-identical epochs issue identical flush sequences; the last
	// flush of an epoch is the epoch record's write-back, issued by the
	// background committer.
	mustRun(t, db, insertBatch(1))
	db.WaitDurable()
	dev.ResetStats()
	mustRun(t, db, insertBatch(2))
	db.WaitDurable()
	flushesPerEpoch := dev.Stats().Flushes

	caught := func() (r any) {
		defer func() { r = recover() }()
		dev.SetFailAfter(flushesPerEpoch) // dies on the epoch record flush
		if _, err := db.RunEpoch(insertBatch(3)); err != nil {
			t.Fatal(err)
		}
		db.WaitDurable()
		return nil
	}()
	dev.SetFailAfter(0)
	if caught == nil {
		t.Fatal("injected crash never surfaced")
	}
	err, ok := caught.(error)
	if !ok || !errors.Is(err, nvm.ErrInjectedCrash) {
		t.Fatalf("surfaced panic %v, want ErrInjectedCrash", caught)
	}
	// Sticky: every later barrier re-raises.
	second := func() (r any) {
		defer func() { r = recover() }()
		db.WaitDurable()
		return nil
	}()
	if second == nil {
		t.Fatal("persist panic was not sticky")
	}
}

// TestPipelineCommitterPanicBeforeStagingDoesNotHang kills the committer on
// its first counter flush, before any pool staging goroutine starts, while
// the next epoch is already waiting for its staging token. The token must
// still close, so the next RunEpoch raises the committer's panic (sticky)
// instead of blocking forever in waitPoolStaged. Without logging, neither
// epoch's front flushes before the committer does: the counter-only epoch
// writes no rows and the next epoch's insert step waits on the token before
// allocating. The write latency keeps the committer inside its first counter
// store long after the next epoch has reached that wait.
func TestPipelineCommitterPanicBeforeStagingDoesNotHang(t *testing.T) {
	opts := pipelineOpts(2)
	opts.Mode = ModeNoLogging
	dev := nvm.New(opts.Layout.TotalBytes(), nvm.WithLatency(0, 20*time.Millisecond))
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	bump := &Txn{Exec: func(ctx *Ctx) { ctx.db.CounterAdd(0, 1) }}
	dev.SetFailAfter(1) // the committer's first counter flush
	mustRun(t, db, []*Txn{bump})

	runNext := func() <-chan any {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			_, _ = db.RunEpoch([]*Txn{mkInsert(1, []byte("one"))})
		}()
		return done
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-runNext():
			err, ok := r.(error)
			if !ok || !errors.Is(err, nvm.ErrInjectedCrash) {
				t.Fatalf("RunEpoch %d after the committer died: panic %v, want ErrInjectedCrash", i+2, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("RunEpoch %d blocked on a staging token the dead committer never closed", i+2)
		}
	}
}

// TestPipelineRaceStress drives many overlapped epochs across cores so the
// race detector can watch the handoffs: staging tokens vs insertStep/major
// GC allocation, the commit join vs initFence, and the committer's
// counter/journal stores vs the front's WAL writes. Run under -race in CI.
func TestPipelineRaceStress(t *testing.T) {
	opts := pipelineOpts(4)
	ov := obs.New(obs.Config{Cores: 4})
	opts.Obs = ov
	dev := nvm.New(opts.Layout.TotalBytes())
	db, err := Open(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	epochs := 30
	if testing.Short() {
		epochs = 10
	}
	for e := 0; e < epochs; e++ {
		mustRun(t, db, pipelineBatch(e))
	}
	db.WaitDurable()
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Concurrent read-side observers must also be race-free against the
	// committer: stats and durable-epoch polling mirror what nvtop does.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = db.DurableEpoch()
				_ = ov.Stats()
			}
		}
	}()
	for e := epochs; e < epochs+6; e++ {
		mustRun(t, db, pipelineBatch(e))
	}
	db.WaitDurable()
	close(stop)
	wg.Wait()
}
