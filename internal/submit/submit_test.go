// Tests live in submit_test and drive the submitter through the public
// nvcaracal facade, which both exercises the root wiring and mirrors how
// applications use the front-end.
package submit_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"nvcaracal"
	"nvcaracal/internal/crashcheck/kit"
)

// The KV builders and their replay registry come from the shared crash-test
// kit (nvcaracal.Txn is an alias of core.Txn, so kit transactions submit
// directly); the thin wrappers keep the call sites short.
const tblKV = kit.Table

func encKV(key uint64, val []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(nil, key), val...)
}

func mkInsert(key uint64, val []byte) *nvcaracal.Txn { return kit.MkInsert(key, val) }

func mkSet(key uint64, val []byte) *nvcaracal.Txn { return kit.MkSet(key, val) }

func testConfig() nvcaracal.Config {
	return nvcaracal.Config{
		Cores:         2,
		Registry:      kit.Registry(),
		RowsPerCore:   1 << 13,
		ValuesPerCore: 1 << 13,
	}
}

func openTestDB(t *testing.T) (*nvcaracal.DB, *nvcaracal.Device) {
	t.Helper()
	db, dev, err := nvcaracal.OpenWithDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db, dev
}

// key spreads submitter-local serials into a unique key space.
func key(worker, i int) uint64 { return uint64(worker)<<32 | uint64(i) }

// TestConcurrentSubmitStress is the acceptance stress test: 8 submitter
// goroutines drive the engine through dozens of epochs, every future
// commits, batches respect the size cap, and the final state holds every
// write. Run it under -race.
func TestConcurrentSubmitStress(t *testing.T) {
	const (
		submitters = 8
		perWorker  = 250
		maxBatch   = 64
	)
	db, _ := openTestDB(t)
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: maxBatch,
		MaxDelay: 200 * time.Microsecond,
	})

	futs := make([][]*nvcaracal.Future, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			futs[w] = make([]*nvcaracal.Future, perWorker)
			for i := 0; i < perWorker; i++ {
				k := key(w, i)
				f, err := s.Submit(mkInsert(k, binary.LittleEndian.AppendUint64(nil, k)))
				if err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				futs[w][i] = f
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	perEpoch := make(map[uint64]int)
	for w := range futs {
		for i, f := range futs[w] {
			if f == nil {
				t.Fatalf("worker %d future %d missing", w, i)
			}
			r := f.Wait()
			if r.Err != nil || !r.Committed {
				t.Fatalf("worker %d txn %d: err=%v committed=%v", w, i, r.Err, r.Committed)
			}
			if r.Epoch == 0 || r.SID == 0 {
				t.Fatalf("worker %d txn %d: empty result %+v", w, i, r)
			}
			perEpoch[r.Epoch]++
		}
	}
	for ep, n := range perEpoch {
		if n > maxBatch {
			t.Fatalf("epoch %d held %d txns, cap %d", ep, n, maxBatch)
		}
	}
	if got := db.Epoch(); got < 20 {
		t.Fatalf("expected >= 20 epochs, got %d", got)
	}
	for w := 0; w < submitters; w++ {
		for i := 0; i < perWorker; i++ {
			k := key(w, i)
			v, ok := db.Get(tblKV, k)
			if !ok || binary.LittleEndian.Uint64(v) != k {
				t.Fatalf("key %d: ok=%v val=%v", k, ok, v)
			}
		}
	}
}

// TestSubmitAriaResubmitsConflictLosers drives contended Aria RMW
// increments on a single key: each epoch commits exactly one writer, the
// rest defer and must be resubmitted automatically until every future
// resolves committed and the counter equals the transaction count.
func TestSubmitAriaResubmitsConflictLosers(t *testing.T) {
	const (
		submitters = 4
		perWorker  = 10
	)
	db, _ := openTestDB(t)
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: 16,
		MaxDelay: 200 * time.Microsecond,
	})

	// Seed the counter row through the Caracal flavour of the same
	// submitter.
	seed, err := s.Submit(mkInsert(1, make([]byte, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if r := seed.Wait(); r.Err != nil || !r.Committed {
		t.Fatalf("seed: %+v", r)
	}

	mkIncr := func() *nvcaracal.AriaTxn {
		return &nvcaracal.AriaTxn{
			TypeID: 1,
			Exec: func(ctx *nvcaracal.AriaCtx) {
				old, _ := ctx.Read(tblKV, 1)
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(old)+1)
				ctx.Write(tblKV, 1, buf)
			},
		}
	}

	var wg sync.WaitGroup
	futs := make([][]*nvcaracal.Future, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			futs[w] = make([]*nvcaracal.Future, perWorker)
			for i := 0; i < perWorker; i++ {
				f, err := s.SubmitAria(mkIncr())
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				futs[w][i] = f
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	epochsUsed := make(map[uint64]bool)
	for w := range futs {
		for i, f := range futs[w] {
			r := f.Wait()
			if r.Err != nil || !r.Committed {
				t.Fatalf("worker %d incr %d: %+v", w, i, r)
			}
			epochsUsed[r.Epoch] = true
		}
	}
	if len(epochsUsed) < 2 {
		t.Fatalf("contended RMWs committed in %d epoch(s); expected conflict deferrals", len(epochsUsed))
	}
	v, ok := db.Get(tblKV, 1)
	if !ok {
		t.Fatal("counter row missing")
	}
	if got := binary.LittleEndian.Uint64(v); got != submitters*perWorker {
		t.Fatalf("counter = %d, want %d", got, submitters*perWorker)
	}
}

// TestMixedFlavourSubmission interleaves Caracal and Aria submissions; the
// former must split batches at flavour boundaries and commit both kinds.
func TestMixedFlavourSubmission(t *testing.T) {
	db, _ := openTestDB(t)
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: 8,
		MaxDelay: 200 * time.Microsecond,
	})

	var futs []*nvcaracal.Future
	for i := 0; i < 40; i++ {
		k := uint64(100 + i)
		if i%2 == 0 {
			f, err := s.Submit(mkInsert(k, []byte("caracal")))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		} else {
			f, err := s.SubmitAria(&nvcaracal.AriaTxn{
				TypeID: 1,
				Exec: func(ctx *nvcaracal.AriaCtx) {
					ctx.Write(tblKV, k, []byte("aria"))
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if r := f.Wait(); r.Err != nil || !r.Committed {
			t.Fatalf("txn %d: %+v", i, r)
		}
	}
	for i := 0; i < 40; i++ {
		want := "caracal"
		if i%2 == 1 {
			want = "aria"
		}
		v, ok := db.Get(tblKV, uint64(100+i))
		if !ok || string(v) != want {
			t.Fatalf("key %d: ok=%v val=%q want %q", 100+i, ok, v, want)
		}
	}
}

// TestRejectBackpressure stalls the runner with a gated transaction and
// verifies the Reject policy sheds load with ErrOverloaded once the queue
// and pipeline are full, then drains cleanly.
func TestRejectBackpressure(t *testing.T) {
	db, _ := openTestDB(t)
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch:   2,
		MaxDelay:   50 * time.Microsecond,
		QueueDepth: 4,
		Overload:   nvcaracal.OverloadReject,
	})

	gate := make(chan struct{})
	gated := &nvcaracal.Txn{
		TypeID: kit.TypeInsert,
		Input:  encKV(1, []byte("g")),
		Ops:    []nvcaracal.Op{{Table: tblKV, Key: 1, Kind: nvcaracal.OpInsert}},
		Exec: func(ctx *nvcaracal.Ctx) {
			<-gate
			ctx.Insert(tblKV, 1, []byte("g"))
		},
	}
	gf, err := s.Submit(gated)
	if err != nil {
		t.Fatal(err)
	}

	// With the runner stalled, the queue (depth 4) plus the pipeline can
	// absorb only a bounded number of submissions before Reject fires.
	var futs []*nvcaracal.Future
	sawOverload := false
	for i := 0; i < 100 && !sawOverload; i++ {
		f, err := s.Submit(mkInsert(uint64(10+i), []byte("x")))
		switch {
		case err == nil:
			futs = append(futs, f)
		case errors.Is(err, nvcaracal.ErrOverloaded):
			sawOverload = true
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
		time.Sleep(100 * time.Microsecond) // let the former drain the queue
	}
	if !sawOverload {
		t.Fatal("never saw ErrOverloaded with the runner stalled")
	}

	close(gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r := gf.Wait(); r.Err != nil || !r.Committed {
		t.Fatalf("gated txn: %+v", r)
	}
	for i, f := range futs {
		if r := f.Wait(); r.Err != nil || !r.Committed {
			t.Fatalf("txn %d: %+v", i, r)
		}
	}
}

// TestBlockBackpressure verifies the default policy blocks a submitter on a
// full queue and completes once the stall clears.
func TestBlockBackpressure(t *testing.T) {
	db, _ := openTestDB(t)
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch:   2,
		MaxDelay:   50 * time.Microsecond,
		QueueDepth: 2,
	})

	gate := make(chan struct{})
	gf, err := s.Submit(&nvcaracal.Txn{
		TypeID: kit.TypeInsert,
		Input:  encKV(1, []byte("g")),
		Ops:    []nvcaracal.Op{{Table: tblKV, Key: 1, Kind: nvcaracal.OpInsert}},
		Exec: func(ctx *nvcaracal.Ctx) {
			<-gate
			ctx.Insert(tblKV, 1, []byte("g"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 30
	var wg sync.WaitGroup
	futs := make([]*nvcaracal.Future, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := s.Submit(mkInsert(uint64(10+i), []byte("x")))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			futs[i] = f
		}(i)
	}
	// Some of those submits are necessarily blocked on the full queue now;
	// releasing the gate must unblock them all.
	close(gate)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r := gf.Wait(); r.Err != nil || !r.Committed {
		t.Fatalf("gated txn: %+v", r)
	}
	for i, f := range futs {
		if r := f.Wait(); r.Err != nil || !r.Committed {
			t.Fatalf("txn %d: %+v", i, r)
		}
	}
}

// TestCloseSemantics: Close drains queued work, later submissions fail with
// ErrSubmitterClosed, and Close is idempotent.
func TestCloseSemantics(t *testing.T) {
	db, _ := openTestDB(t)
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: 4,
		// A long deadline: Close itself must flush the partial batch.
		MaxDelay: time.Hour,
	})
	var futs []*nvcaracal.Future
	for i := 0; i < 10; i++ {
		f, err := s.Submit(mkInsert(uint64(i), []byte("v")))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if r := f.Wait(); r.Err != nil || !r.Committed {
			t.Fatalf("txn %d after Close: %+v", i, r)
		}
	}
	if _, err := s.Submit(mkInsert(99, []byte("late"))); !errors.Is(err, nvcaracal.ErrSubmitterClosed) {
		t.Fatalf("submit after Close: %v, want ErrSubmitterClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMaxDelayFlushesPartialBatch: a single submission must not wait for a
// full batch; the deadline closes the epoch.
func TestMaxDelayFlushesPartialBatch(t *testing.T) {
	db, _ := openTestDB(t)
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: 1 << 20, // never reached
		MaxDelay: time.Millisecond,
	})
	defer s.Close()
	f, err := s.Submit(mkInsert(1, []byte("solo")))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-f.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("future did not resolve; deadline flush broken")
	}
	if r := f.Wait(); r.Err != nil || !r.Committed {
		t.Fatalf("solo txn: %+v", r)
	}
}

// TestPipelineSubmitStress is the submit-front counterpart of the engine's
// pipeline race test: concurrent submitters keep the batch former full
// while the depth-1 epoch pipeline overlaps every epoch's checkpoint with
// the next epoch's work, so the race detector watches the staging-token
// and commit-join handoffs under real front-end concurrency. Run under
// -race in CI.
func TestPipelineSubmitStress(t *testing.T) {
	const (
		submitters = 8
		perWorker  = 200
		maxBatch   = 64
	)
	cfg := testConfig()
	cfg.Pipeline = true
	db, err := nvcaracal.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := nvcaracal.NewSubmitter(db, nvcaracal.SubmitterConfig{
		MaxBatch: maxBatch,
		MaxDelay: 200 * time.Microsecond,
	})

	var wg sync.WaitGroup
	futs := make([][]*nvcaracal.Future, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			futs[w] = make([]*nvcaracal.Future, perWorker)
			for i := 0; i < perWorker; i++ {
				k := key(w, i)
				var f *nvcaracal.Future
				var err error
				if i%2 == 0 {
					f, err = s.Submit(mkInsert(k, binary.LittleEndian.AppendUint64(nil, k)))
				} else {
					// Overwrite the worker's previous insert: dual-version
					// rewrites feed major GC into the overlapped window.
					f, err = s.Submit(mkSet(key(w, i-1), binary.LittleEndian.AppendUint64(nil, k)))
				}
				if err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				futs[w][i] = f
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db.WaitDurable()
	if ep, dur := db.Epoch(), db.DurableEpoch(); dur != ep {
		t.Fatalf("after WaitDurable: durable epoch %d != epoch %d", dur, ep)
	}

	for w := range futs {
		for i, f := range futs[w] {
			if f == nil {
				t.Fatalf("worker %d future %d missing", w, i)
			}
			if r := f.Wait(); r.Err != nil || !r.Committed {
				t.Fatalf("worker %d txn %d: err=%v committed=%v", w, i, r.Err, r.Committed)
			}
		}
	}
	for w := 0; w < submitters; w++ {
		for i := 1; i < perWorker; i += 2 {
			k := key(w, i-1)
			v, ok := db.Get(tblKV, k)
			if !ok || binary.LittleEndian.Uint64(v) != key(w, i) {
				t.Fatalf("key %d: ok=%v val=%v", k, ok, v)
			}
		}
	}
}
