package crashcheck

import (
	"testing"
	"time"

	"nvcaracal/internal/core"
)

// smallSpec is DefaultSpec shrunk so an exhaustive sweep of every flushed
// line, all modes, with double faults, stays inside unit-test time.
func smallSpec() Spec {
	s := DefaultSpec()
	s.Rows = 32
	s.WarmEpochs = 2
	s.TxnsPerEpoch = 16
	return s
}

func mustRun(t *testing.T, spec Spec, cfg Config) *Report {
	t.Helper()
	rep, err := Run(spec, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func assertClean(t *testing.T, rep *Report) {
	t.Helper()
	for i, v := range rep.Violations {
		if i >= 5 {
			t.Errorf("... and %d more", len(rep.Violations)-5)
			break
		}
		t.Errorf("violation: %v", v)
	}
	if rep.PointsExplored != rep.PointsPlanned {
		t.Errorf("explored %d of %d planned points", rep.PointsExplored, rep.PointsPlanned)
	}
}

func TestExhaustiveSweepKV(t *testing.T) {
	rep := mustRun(t, smallSpec(), Config{})
	assertClean(t, rep)
	if !rep.Exhaustive {
		t.Errorf("expected an exhaustive plan for the small spec")
	}
	if !rep.Deterministic {
		t.Errorf("expected a single-core spec to be deterministic")
	}
	if rep.FlushPoints < 16 {
		t.Errorf("suspiciously few flush points: %d", rep.FlushPoints)
	}
	if rep.FenceCount < 2 {
		t.Errorf("suspiciously few fences: %d", rep.FenceCount)
	}
	t.Logf("swept %d points over %d flushes (%d fences) in %dms",
		rep.PointsExplored, rep.FlushPoints, rep.FenceCount, rep.ElapsedMS)
}

func TestExhaustiveSweepAria(t *testing.T) {
	s := smallSpec()
	s.Aria = true
	rep := mustRun(t, s, Config{})
	assertClean(t, rep)
	if !rep.Exhaustive {
		t.Errorf("expected an exhaustive plan")
	}
}

func TestSweepPersistIndex(t *testing.T) {
	s := smallSpec()
	s.PersistIndex = true
	rep := mustRun(t, s, Config{})
	assertClean(t, rep)
}

// TestSweepPipeline explores the two-epoch overlapped window of the depth-1
// epoch pipeline: fail points land inside epoch P's background commit
// (counters, parallel pool staging, index journal, checkpoint fence, epoch
// record) while epoch P+1's front serializes, inits, and executes — and
// vice versa. The committer interleaves with the front nondeterministically
// even on one core, so the sweep does not assert Deterministic; every
// recovered state must still land on exactly the pre-, mid-, or post-window
// oracle digest.
func TestSweepPipeline(t *testing.T) {
	s := smallSpec()
	s.Pipeline = true
	rep := mustRun(t, s, Config{})
	assertClean(t, rep)
	if rep.WindowEpochs != 2 {
		t.Errorf("pipeline window spans %d epochs, want 2", rep.WindowEpochs)
	}
	if rep.DigestMid == "" || rep.DigestMid == rep.DigestPost || rep.DigestMid == rep.DigestPre {
		t.Errorf("mid-window digest %q not distinct from pre %q / post %q", rep.DigestMid, rep.DigestPre, rep.DigestPost)
	}
}

// TestSweepPipelinePersistIndex adds the index journal, so the committer's
// delta-block append and journal checkpoint run inside the overlap (or the
// front compacts inline when the block would not fit).
func TestSweepPipelinePersistIndex(t *testing.T) {
	s := smallSpec()
	s.Pipeline = true
	s.PersistIndex = true
	rep := mustRun(t, s, Config{MaxPoints: 300})
	assertClean(t, rep)
}

// TestSweepPipelineAria covers the Aria flavour's pre-init commit join.
func TestSweepPipelineAria(t *testing.T) {
	s := smallSpec()
	s.Pipeline = true
	s.Aria = true
	rep := mustRun(t, s, Config{MaxPoints: 300})
	assertClean(t, rep)
}

// TestSweepMajorGCHeavy pins the single-fence major-GC protocol: with the
// minor collector off and every value pooled, each probe epoch carries ring
// appends, phase-1 frees, and phase-2 row rewrites, all ordered by the one
// init fence (the collector itself issues none). The sweep would surface a
// lost free, a premature rewrite, or a mis-adopted ring entry at any of the
// crash points.
func TestSweepMajorGCHeavy(t *testing.T) {
	s := smallSpec()
	s.MinorGC = false
	s.TxnsPerEpoch = 24 // all updates of pooled values -> heavy major GC
	rep := mustRun(t, s, Config{MaxPoints: 300})
	assertClean(t, rep)
}

func TestSweepMultiCoreSampled(t *testing.T) {
	s := smallSpec()
	s.Cores = 2
	rep := mustRun(t, s, Config{MaxPoints: 200})
	assertClean(t, rep)
}

func TestSweepWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweeps are slow")
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"ycsb", Spec{Workload: "ycsb", Cores: 1, Seed: 2, Rows: 32, WarmEpochs: 1, TxnsPerEpoch: 8, MinorGC: true, ChaosDenom: 5}},
		{"smallbank", Spec{Workload: "smallbank", Cores: 1, Seed: 3, Rows: 16, WarmEpochs: 1, TxnsPerEpoch: 8, MinorGC: true, ChaosDenom: 5}},
		{"tpcc", Spec{Workload: "tpcc", Cores: 1, Seed: 4, Rows: 1, WarmEpochs: 1, TxnsPerEpoch: 6, MinorGC: true, ChaosDenom: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustRun(t, tc.spec, Config{MaxPoints: 150})
			assertClean(t, rep)
		})
	}
}

func TestStratifiedPlanCoversFences(t *testing.T) {
	sess, err := newSession(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	o, err := buildOracle(sess)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxPoints: 60}.withDefaults()
	pts, exhaustive := plan(o, cfg)
	if exhaustive {
		t.Fatalf("a %d-point cap over %d flushes should not be exhaustive", cfg.MaxPoints, o.flushes)
	}
	if len(pts) == 0 || len(pts) > cfg.MaxPoints {
		t.Fatalf("planned %d points under a cap of %d", len(pts), cfg.MaxPoints)
	}
	has := make(map[int64]bool)
	for _, pt := range pts {
		has[pt.FailAfter] = true
	}
	if !has[1] || !has[o.flushes] {
		t.Errorf("stratified plan misses the first or last flush")
	}
	covered := 0
	for _, m := range o.fenceMarks {
		if has[m] || has[m+1] {
			covered++
		}
	}
	if covered < len(o.fenceMarks)/2 {
		t.Errorf("stratified plan covers only %d of %d fence boundaries", covered, len(o.fenceMarks))
	}
}

// TestCommittedReprosStayFixed replays the reproducers committed for
// ordering bugs the sweeps surfaced. Each must come back clean: a non-nil
// violation means the bug regressed. The tpcc reproducer pins the
// decode-after-restore ordering in recovery — the TPC-C decoder mutates the
// persistent counters at decode time (§6.2.3 ID re-assignment), so decoding
// the crashed epoch's WAL batch before the counter-parity restore shifts
// every counter-derived key during replay.
func TestCommittedReprosStayFixed(t *testing.T) {
	for _, name := range []string{"repro-tpcc-decode-counters.json"} {
		t.Run(name, func(t *testing.T) {
			r, err := LoadRepro("testdata/" + name)
			if err != nil {
				t.Fatalf("LoadRepro: %v", err)
			}
			if r.BrokenPersistOrder {
				t.Fatalf("fixed-bug reproducer unexpectedly wants the sabotage build")
			}
			v, err := Replay(r)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if v != nil {
				t.Fatalf("committed reproducer replays again — the bug regressed: %v", v)
			}
		})
	}
}

// TestSabotageReproStillReplays is the counterpart harness check: the
// committed minimized reproducer from the -break-persist-order self-test
// must still reproduce its violation when the deliberate ordering break is
// reinstated. This proves Replay actually exercises the recorded crash
// point (so the clean replays above mean "fixed", not "harness inert").
func TestSabotageReproStillReplays(t *testing.T) {
	r, err := LoadRepro("testdata/repro-broken-persist-order.json")
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	if !r.BrokenPersistOrder {
		t.Fatalf("sabotage reproducer lost its broken_persist_order flag")
	}
	core.SetPersistOrderBroken(true)
	defer core.SetPersistOrderBroken(false)
	v, err := Replay(r)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if v == nil {
		t.Fatalf("sabotage reproducer no longer replays: %+v", r)
	}
	if v.Kind != r.Kind {
		t.Errorf("replayed kind %q, recorded %q", v.Kind, r.Kind)
	}
}

// TestBrokenPersistOrderCaught is the checker's own end-to-end test: with
// the SID-before-pointer store ordering deliberately inverted, chaos
// eviction can tear a descriptor between its fields, and the sweep must
// catch the resulting corruption and minimize it to a replayable
// reproducer.
func TestBrokenPersistOrderCaught(t *testing.T) {
	core.SetPersistOrderBroken(true)
	defer core.SetPersistOrderBroken(false)

	s := smallSpec()
	s.Seed = 7
	rep := mustRun(t, s, Config{})
	if len(rep.Violations) == 0 {
		t.Fatalf("broken persist ordering survived a %d-point exhaustive sweep", rep.PointsExplored)
	}
	t.Logf("caught %d violations; first: %v", len(rep.Violations), rep.Violations[0])

	repro := Minimize(s, rep.Violations[0], Config{}, 30*time.Second)
	repro.BrokenPersistOrder = true
	if repro.Spec.Rows > s.Rows || repro.Spec.TxnsPerEpoch > s.TxnsPerEpoch {
		t.Errorf("minimization grew the spec: %+v", repro.Spec)
	}
	v, err := Replay(repro)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if v == nil {
		t.Fatalf("minimized reproducer does not replay: %+v", repro)
	}
	t.Logf("minimized to %+v, replays as %v", repro.Spec, v)
}
