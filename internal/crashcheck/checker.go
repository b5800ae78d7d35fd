package crashcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nvcaracal/internal/core"
	"nvcaracal/internal/crashcheck/kit"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// Violation kinds.
const (
	KindRecoverError   = "recover-error" // Recover returned an error or crashed unexpectedly
	KindEpochError     = "epoch-error"   // the probe epoch failed for a non-crash reason
	KindEpochLost      = "committed-epoch-lost"
	KindDigestMismatch = "digest-mismatch" // lost committed data or resurrected uncommitted data
	KindInvariant      = "invariant"       // structural invariant broken (see core.CheckInvariants)
)

// Point identifies one crash point: the fail-point position within the
// probe epoch's flush sequence, the crash mode, and — for double faults —
// a second fail-point armed during the recovery that follows.
type Point struct {
	FailAfter int64  `json:"fail_after"`
	Mode      string `json:"mode"` // "strict" | "all" | "random"
	CrashSeed int64  `json:"crash_seed,omitempty"`
	// DoubleFailAfter, when positive, arms a second fail-point during the
	// first recovery attempt, crashing it mid-flight before the final
	// recovery runs.
	DoubleFailAfter int64 `json:"double_fail_after,omitempty"`
}

func (p Point) String() string {
	s := fmt.Sprintf("fail@%d/%s", p.FailAfter, p.Mode)
	if p.Mode == "random" {
		s += fmt.Sprintf("#%d", p.CrashSeed)
	}
	if p.DoubleFailAfter > 0 {
		s += fmt.Sprintf("+refail@%d", p.DoubleFailAfter)
	}
	return s
}

func crashModeOf(name string) (nvm.CrashMode, error) {
	switch name {
	case "strict":
		return nvm.CrashStrict, nil
	case "all":
		return nvm.CrashAll, nil
	case "random":
		return nvm.CrashRandom, nil
	}
	return 0, fmt.Errorf("crashcheck: unknown crash mode %q", name)
}

// Violation is one failed check at one crash point.
type Violation struct {
	Point  Point  `json:"point"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// FlightTail is the engine's flight-recorder dump across the failing
	// point's crash-recover-check cycle: epoch transitions, fences, GC,
	// recovery stages. Populated when the explorer ran with a flight
	// recorder attached (always, from Run and Replay).
	FlightTail string `json:"flight_tail,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s: %s", v.Kind, v.Point, v.Detail)
}

// Config controls an exploration run.
type Config struct {
	// Budget bounds wall-clock time; zero means unbounded. Points not
	// explored before the deadline are skipped (and counted in the report).
	Budget time.Duration
	// MaxPoints bounds the number of points planned; zero plans the full
	// cross product (exhaustive). When the full product exceeds MaxPoints
	// the planner samples fail-points stratified toward fence boundaries.
	MaxPoints int
	// Workers is the worker-pool size; zero means GOMAXPROCS.
	Workers int
	// Modes are the crash modes to cross with each fail-point; nil means
	// all three.
	Modes []string
	// RandomSeeds is how many seeds each CrashRandom point gets (min 1).
	RandomSeeds int
	// DoubleFaults adds crash-during-recovery variants for a subset of
	// points (every DoubleEvery-th, default 8).
	DoubleFaults bool
	DoubleEvery  int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Modes) == 0 {
		c.Modes = []string{"strict", "all", "random"}
	}
	if c.RandomSeeds < 1 {
		c.RandomSeeds = 1
	}
	if c.DoubleEvery <= 0 {
		c.DoubleEvery = 8
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Report is the outcome of an exploration run.
type Report struct {
	Spec       Spec   `json:"spec"`
	ProbeEpoch uint64 `json:"probe_epoch"`
	// WindowEpochs is how many engine epochs the probe window spans: one
	// normally, two under Spec.Pipeline (the overlapped commit/front pair).
	WindowEpochs int `json:"window_epochs"`
	// FlushPoints is the number of explicit line flushes the probe window
	// issues when run after recovery from the probe-boundary snapshot —
	// the space the fail-points index into.
	FlushPoints int64 `json:"flush_points"`
	// FenceCount is how many fences the probe epoch issues (the persist-
	// phase boundaries stratified sampling biases toward).
	FenceCount int `json:"fence_count"`
	// Deterministic reports whether two independent replica runs of the
	// probe epoch produced identical flush counts and digests. Single-core
	// specs are deterministic; multi-core specs usually are not, in which
	// case each point samples one interleaving (checks remain valid).
	Deterministic bool `json:"deterministic"`
	// Exhaustive reports that every fail-point in [1, FlushPoints] was
	// planned (no sampling).
	Exhaustive     bool   `json:"exhaustive"`
	PointsPlanned  int    `json:"points_planned"`
	PointsExplored int    `json:"points_explored"`
	DigestPre      string `json:"digest_pre"`
	// DigestMid is the digest after the first window epoch alone — the
	// state a crash between the two pipelined commits must recover to.
	// Present only when the window spans more than one epoch.
	DigestMid  string      `json:"digest_mid,omitempty"`
	DigestPost string      `json:"digest_post"`
	Violations []Violation `json:"violations,omitempty"`
	ElapsedMS  int64       `json:"elapsed_ms"`
}

// oracle holds the crash-free reference: a device snapshot at the probe
// boundary, the digests at every committed state the probe window passes
// through, and the shape of the window's flush sequence.
type oracle struct {
	sess       *session
	snap       *nvm.Snapshot
	probeEpoch uint64 // engine epoch number of the first window epoch
	windowLast uint64 // engine epoch number of the last window epoch
	probeLE    int    // logical epoch index fed to the generator
	digestPre  uint64
	digestMid  uint64 // after the first window epoch (== digestPost when the window is one epoch)
	digestPost uint64
	flushes    int64
	fenceMarks []int64 // flush counts (relative to window start) at each fence
	determin   bool
}

// buildOracle runs the workload crash-free and captures the reference
// state. Three runs are involved: the main run produces the snapshot and
// both digests; a replica run (recover-then-probe, the exact path every
// checker worker takes) measures the flush sequence; a second replica run
// re-measures it to classify the spec as deterministic.
func buildOracle(sess *session) (*oracle, error) {
	o := &oracle{sess: sess, probeLE: sess.spec.WarmEpochs + 1}

	dev := sess.newDevice()
	db, err := core.Open(dev, sess.opts)
	if err != nil {
		return nil, fmt.Errorf("crashcheck: open: %w", err)
	}
	epochs := 0
	for _, b := range sess.loadBatches() {
		if _, err := db.RunEpoch(b); err != nil {
			return nil, fmt.Errorf("crashcheck: load epoch: %w", err)
		}
		epochs++
	}
	for le := 1; le <= sess.spec.WarmEpochs; le++ {
		if err := sess.runEpoch(db, le); err != nil {
			return nil, fmt.Errorf("crashcheck: warm epoch %d: %w", le, err)
		}
		epochs++
	}
	o.probeEpoch = uint64(epochs + 1)
	o.windowLast = o.probeEpoch + uint64(sess.windowEpochs()-1)
	o.digestPre = sess.digest(db)
	if err := db.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("crashcheck: invariants broken before probe (spec unusable): %w", err)
	}
	o.snap = dev.Snapshot()
	// The main run executes the window epochs drained one at a time even
	// under Pipeline: the digests describe logical committed state, which
	// the deterministic engine reaches identically whether the window ran
	// overlapped or serial, and draining after the first epoch is the only
	// way to capture the mid-window digest a crash landing between the two
	// commits must recover to.
	if err := sess.runEpoch(db, o.probeLE); err != nil {
		return nil, fmt.Errorf("crashcheck: probe epoch: %w", err)
	}
	o.digestMid = sess.digest(db)
	for i := 1; i < sess.windowEpochs(); i++ {
		if err := sess.runEpoch(db, o.probeLE+i); err != nil {
			return nil, fmt.Errorf("crashcheck: window epoch %d: %w", o.probeLE+i, err)
		}
	}
	o.digestPost = sess.digest(db)
	if err := db.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("crashcheck: invariants broken after probe (spec unusable): %w", err)
	}
	if o.digestPre == o.digestMid || o.digestPre == o.digestPost ||
		(o.windowLast > o.probeEpoch && o.digestMid == o.digestPost) {
		return nil, fmt.Errorf("crashcheck: a window epoch left the digest unchanged; the spec cannot detect lost epochs")
	}

	// Replica runs: measure the flush sequence on the path workers take.
	f1, marks1, d1, err := o.replicaProbe()
	if err != nil {
		return nil, err
	}
	f2, _, d2, err := o.replicaProbe()
	if err != nil {
		return nil, err
	}
	if d1 != o.digestPost || d2 != o.digestPost {
		return nil, fmt.Errorf("crashcheck: recovered replica's probe digest %016x/%016x does not match oracle %016x; workload is not replay-deterministic",
			d1, d2, o.digestPost)
	}
	o.flushes, o.fenceMarks = f1, marks1
	o.determin = f1 == f2
	return o, nil
}

// replicaProbe recovers a fresh replica of the snapshot and runs the probe
// window crash-free with fence tracing — overlapped, on the exact path the
// checker workers take — returning the flush count, the relative fence
// marks, and the resulting digest.
func (o *oracle) replicaProbe() (int64, []int64, uint64, error) {
	dev := o.snap.NewDevice()
	db, _, err := core.Recover(dev, o.sess.opts)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("crashcheck: clean recovery of the probe-boundary snapshot failed: %w", err)
	}
	if got := o.sess.digest(db); got != o.digestPre {
		return 0, nil, 0, fmt.Errorf("crashcheck: clean recovery changed the digest: %016x != %016x", got, o.digestPre)
	}
	base := dev.Stats().Flushes
	dev.TraceFences(true)
	if err := o.sess.probeWindow(db, o.probeLE); err != nil {
		return 0, nil, 0, fmt.Errorf("crashcheck: replica probe window: %w", err)
	}
	marksAbs := dev.FenceMarks()
	dev.TraceFences(false)
	flushes := dev.Stats().Flushes - base
	marks := make([]int64, 0, len(marksAbs))
	for _, m := range marksAbs {
		if rel := m - base; rel > 0 && rel <= flushes {
			marks = append(marks, rel)
		}
	}
	return flushes, marks, o.sess.digest(db), nil
}

// newFlightObs builds the minimal per-worker observability attachment: just
// a flight recorder, small enough to reset per point, so a violation can
// carry the event trail of its crash-recover-check cycle.
func newFlightObs() *obs.Obs {
	return obs.New(obs.Config{FlightPerStripe: 512})
}

// explore runs one crash point on the worker's device replica and returns
// the first violated check, or nil. fobs (optional) records the engine's
// flight events across the cycle; on a violation its dump is attached.
func (o *oracle) explore(dev *nvm.Device, pt Point, fobs *obs.Obs) *Violation {
	opts := o.sess.opts
	opts.Obs = fobs
	fobs.Reset()
	v := o.explorePoint(dev, pt, opts)
	if v != nil && fobs != nil {
		var b strings.Builder
		fobs.Flight().Dump(&b, 0)
		v.FlightTail = b.String()
	}
	return v
}

func (o *oracle) explorePoint(dev *nvm.Device, pt Point, opts core.Options) *Violation {
	mode, err := crashModeOf(pt.Mode)
	if err != nil {
		return &Violation{Point: pt, Kind: KindEpochError, Detail: err.Error()}
	}
	dev.Restore(o.snap)
	db, _, err := core.Recover(dev, opts)
	if err != nil {
		return &Violation{Point: pt, Kind: KindRecoverError, Detail: fmt.Sprintf("pre-probe recovery: %v", err)}
	}

	dev.SetFailAfter(pt.FailAfter)
	fired, err := o.sess.probeWindowUntilCrash(db, o.probeLE)
	dev.SetFailAfter(0)
	if err != nil {
		return &Violation{Point: pt, Kind: KindEpochError, Detail: err.Error()}
	}
	dev.Crash(mode, pt.CrashSeed)

	if pt.DoubleFailAfter > 0 {
		dev.SetFailAfter(pt.DoubleFailAfter)
		_, _, refired, rerr := kit.RecoverUntilCrash(dev, opts)
		dev.SetFailAfter(0)
		if rerr != nil {
			return &Violation{Point: pt, Kind: KindRecoverError, Detail: fmt.Sprintf("first recovery attempt: %v", rerr)}
		}
		if refired {
			// Crash the interrupted recovery too; vary the seed so the two
			// faults do not share an eviction pattern.
			dev.Crash(mode, pt.CrashSeed+7919)
		}
	}

	db2, rep, err := core.Recover(dev, opts)
	if err != nil {
		return &Violation{Point: pt, Kind: KindRecoverError, Detail: err.Error()}
	}

	// No committed epoch may be lost: everything up to the probe boundary
	// was durable before the fail-point armed.
	if rep.CheckpointEpoch < o.probeEpoch-1 {
		return &Violation{Point: pt, Kind: KindEpochLost,
			Detail: fmt.Sprintf("recovered checkpoint epoch %d but epochs through %d were committed before the crash",
				rep.CheckpointEpoch, o.probeEpoch-1)}
	}
	// The effective recovered epoch is the youngest state the recovery
	// reconstructed, by checkpoint or WAL replay. The window admits three:
	// nothing committed (pre), the first window epoch committed (mid — only
	// distinct from post under the two-epoch pipeline window), or the whole
	// window committed (post).
	eff := rep.CheckpointEpoch
	if rep.ReplayedEpoch > eff {
		eff = rep.ReplayedEpoch
	}
	if eff > o.windowLast {
		return &Violation{Point: pt, Kind: KindRecoverError,
			Detail: fmt.Sprintf("recovered epoch %d (ckpt=%d replayed=%d) is beyond the probe window end %d",
				eff, rep.CheckpointEpoch, rep.ReplayedEpoch, o.windowLast)}
	}
	var want uint64
	var side string
	switch {
	case eff < o.probeEpoch:
		want, side = o.digestPre, "pre-window (no window epoch committed: lost uncommitted data must vanish entirely)"
	case eff == o.probeEpoch && o.windowLast > o.probeEpoch:
		want, side = o.digestMid, "mid-window (first window epoch committed or replayed)"
	default:
		want, side = o.digestPost, "post-window (whole window committed or replayed)"
	}
	if got := o.sess.digest(db2); got != want {
		return &Violation{Point: pt, Kind: KindDigestMismatch,
			Detail: fmt.Sprintf("recovered digest %016x != %s oracle %016x (fired=%v ckpt=%d replayed=%d)",
				got, side, want, fired, rep.CheckpointEpoch, rep.ReplayedEpoch)}
	}
	if err := db2.CheckInvariants(); err != nil {
		return &Violation{Point: pt, Kind: KindInvariant, Detail: err.Error()}
	}
	return nil
}

// Run explores the crash-point space of the spec's probe epoch and
// reports every violated check.
func Run(spec Spec, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	sess, err := newSession(spec)
	if err != nil {
		return nil, err
	}
	o, err := buildOracle(sess)
	if err != nil {
		return nil, err
	}
	pts, exhaustive := plan(o, cfg)
	cfg.logf("probe epoch %d (+%d window): %d flushes, %d fences; %d points planned (exhaustive=%v deterministic=%v)",
		o.probeEpoch, o.windowLast-o.probeEpoch, o.flushes, len(o.fenceMarks), len(pts), exhaustive, o.determin)

	var deadline time.Time
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}
	var (
		mu         sync.Mutex
		violations []Violation
		explored   int
	)
	ch := make(chan Point)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := o.snap.NewDevice()
			fobs := newFlightObs()
			for pt := range ch {
				if !deadline.IsZero() && time.Now().After(deadline) {
					continue // budget exhausted: drain without exploring
				}
				v := o.explore(dev, pt, fobs)
				mu.Lock()
				explored++
				if v != nil {
					violations = append(violations, *v)
				}
				mu.Unlock()
			}
		}()
	}
	for _, pt := range pts {
		ch <- pt
	}
	close(ch)
	wg.Wait()

	sort.Slice(violations, func(i, j int) bool {
		a, b := violations[i].Point, violations[j].Point
		if a.FailAfter != b.FailAfter {
			return a.FailAfter < b.FailAfter
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.CrashSeed != b.CrashSeed {
			return a.CrashSeed < b.CrashSeed
		}
		return a.DoubleFailAfter < b.DoubleFailAfter
	})
	rep := &Report{
		Spec:           spec,
		ProbeEpoch:     o.probeEpoch,
		WindowEpochs:   int(o.windowLast-o.probeEpoch) + 1,
		FlushPoints:    o.flushes,
		FenceCount:     len(o.fenceMarks),
		Deterministic:  o.determin,
		Exhaustive:     exhaustive,
		PointsPlanned:  len(pts),
		PointsExplored: explored,
		DigestPre:      fmt.Sprintf("%016x", o.digestPre),
		DigestPost:     fmt.Sprintf("%016x", o.digestPost),
		Violations:     violations,
		ElapsedMS:      time.Since(start).Milliseconds(),
	}
	if o.windowLast > o.probeEpoch {
		rep.DigestMid = fmt.Sprintf("%016x", o.digestMid)
	}
	return rep, nil
}
