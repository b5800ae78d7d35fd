package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Per-transaction lifecycle tracing answers the question the aggregate
// histograms cannot: where does one slow transaction's latency actually go?
// A sampled transaction (1-in-N, default 1/64) carries a TxnSpan from the
// submitter's enqueue through batch seal, epoch assignment, execution, the
// checkpoint staging point, and finally the durable-epoch publish. The span
// travels with the transaction itself, so each stage stamps it without any
// shared-state coordination — the only synchronized structure is the
// per-core publish ring, written once per retired sampled transaction.
//
// The lifecycle decomposes into five phases:
//
//	queue      submit-enqueue -> batch seal   (waiting in the submitter)
//	epoch-wait batch seal     -> execute start (waiting for the epoch's turn)
//	execute    execute start  -> execute end
//	epoch-tail execute end    -> checkpoint staged (the epoch's other txns +
//	           checkpoint staging: the cost of epoch-batched commit)
//	commit-lag checkpoint staged -> durable (fence + epoch record; grows when
//	           the pipelined committer falls behind)
//
// Transactions injected below the submitter (hand-batched loads) have no
// submit/seal stamps; missing timestamps inherit the previous stage's, so
// their early phases read as zero rather than garbage.

// TxnSpan is one sampled transaction's lifecycle record. All timestamps are
// wall-clock nanoseconds since the Unix epoch; zero means "stage not seen".
type TxnSpan struct {
	SID       uint64
	Epoch     uint64
	Core      int32 // executing core; CoordinatorCore before execution
	Aborted   bool
	SubmitNS  int64 // enqueued at the submitter
	SealNS    int64 // batch sealed for dispatch
	AssignNS  int64 // SID assigned at epoch start
	ExecStart int64
	ExecEnd   int64
	StagedNS  int64 // checkpoint state staged, pre-fence
	DurableNS int64 // epoch record durable, durable epoch published
}

// MarkSubmit stamps the submit-enqueue time. Nil-safe, like every Mark.
func (s *TxnSpan) MarkSubmit() {
	if s != nil {
		s.SubmitNS = time.Now().UnixNano()
	}
}

// MarkSeal stamps the batch-seal time.
func (s *TxnSpan) MarkSeal() {
	if s != nil {
		s.SealNS = time.Now().UnixNano()
	}
}

// MarkAssign stamps epoch assignment.
func (s *TxnSpan) MarkAssign(epoch, sid uint64) {
	if s != nil {
		s.AssignNS = time.Now().UnixNano()
		s.Epoch = epoch
		s.SID = sid
	}
}

// MarkExec stamps the execution interval from its worker core.
func (s *TxnSpan) MarkExec(core int, start time.Time, dur time.Duration, aborted bool) {
	if s != nil {
		s.Core = int32(core)
		s.ExecStart = start.UnixNano()
		s.ExecEnd = s.ExecStart + int64(dur)
		s.Aborted = aborted
	}
}

// TxnPhase indexes the lifecycle decomposition.
type TxnPhase int

const (
	TxnQueue TxnPhase = iota
	TxnEpochWait
	TxnExecute
	TxnEpochTail
	TxnCommitLag
	NumTxnPhases
)

// TxnPhaseNames is the stable serving-surface order.
var TxnPhaseNames = [NumTxnPhases]string{
	"queue", "epoch-wait", "execute", "epoch-tail", "commit-lag",
}

func (p TxnPhase) String() string {
	if int(p) < len(TxnPhaseNames) {
		return TxnPhaseNames[p]
	}
	return fmt.Sprintf("txn-phase(%d)", int(p))
}

// Phases decomposes the span into per-phase durations. A zero timestamp
// inherits the previous stage's, so the missing phase contributes zero; the
// clamp guards against cross-core clock skew producing negative phases.
func (s TxnSpan) Phases() [NumTxnPhases]int64 {
	stamps := [...]int64{s.SubmitNS, s.SealNS, s.AssignNS, s.ExecStart, s.ExecEnd, s.StagedNS, s.DurableNS}
	// Leading zeros inherit the first observed stamp, not zero: a span that
	// entered the lifecycle late (hand-batched, no submit queue) must read
	// zero for the stages it skipped rather than a raw wall-clock epoch.
	prev := int64(0)
	for _, ts := range stamps {
		if ts != 0 {
			prev = ts
			break
		}
	}
	for i, ts := range stamps {
		if ts == 0 || ts < prev {
			stamps[i] = prev
		} else {
			prev = ts
		}
	}
	var out [NumTxnPhases]int64
	out[TxnQueue] = stamps[1] - stamps[0]
	out[TxnEpochWait] = stamps[3] - stamps[1] // seal -> exec start, spanning assignment
	out[TxnExecute] = stamps[4] - stamps[3]
	out[TxnEpochTail] = stamps[5] - stamps[4]
	out[TxnCommitLag] = stamps[6] - stamps[5]
	return out
}

// Total is the span's end-to-end latency from its first observed stage.
func (s TxnSpan) Total() int64 {
	var total int64
	for _, d := range s.Phases() {
		total += d
	}
	return total
}

// DefaultTxnSampleEvery is the default sampling period: 1 in 64.
const DefaultTxnSampleEvery = 64

// TxnTrace samples and retains transaction lifecycle spans. All methods are
// nil-safe.
type TxnTrace struct {
	every     uint64
	counter   atomic.Uint64
	sampled   atomic.Uint64
	published atomic.Uint64
	rings     []ring[TxnSpan] // [0..cores-1] workers, [cores] coordinator/unknown
}

// NewTxnTrace returns a tracer sampling 1-in-every transactions (default
// DefaultTxnSampleEvery when <= 0; 1 samples everything) and retaining up to
// perCore spans per ring (default 1024 when <= 0).
func NewTxnTrace(cores, every, perCore int) *TxnTrace {
	if cores < 1 {
		cores = 1
	}
	if every <= 0 {
		every = DefaultTxnSampleEvery
	}
	if perCore <= 0 {
		perCore = 1024
	}
	return &TxnTrace{every: uint64(every), rings: newRings[TxnSpan](cores+1, perCore)}
}

// SampleEvery returns the sampling period N (0 when t is nil).
func (t *TxnTrace) SampleEvery() uint64 {
	if t == nil {
		return 0
	}
	return t.every
}

// Sample decides whether the next transaction is traced. It returns a fresh
// span for 1-in-N callers and nil for the rest (and always nil on a nil
// receiver); the caller threads the span through the transaction's life and
// finally hands it back via Publish.
func (t *TxnTrace) Sample() *TxnSpan {
	if t == nil {
		return nil
	}
	if t.counter.Add(1)%t.every != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &TxnSpan{Core: CoordinatorCore}
}

// Publish retires a completed span into its core's ring. Nil spans (the
// unsampled majority) are ignored, so call sites stay unconditional. The
// span is counted before it is recorded, so PublishedCount read after
// Spans is never below the number of spans served.
func (t *TxnTrace) Publish(s *TxnSpan) {
	if t == nil || s == nil {
		return
	}
	workers := len(t.rings) - 1
	idx := int(s.Core)
	if idx < 0 || idx >= workers {
		idx = workers
	}
	t.published.Add(1)
	t.rings[idx].record(*s)
}

// SampledCount returns how many transactions were selected for tracing.
func (t *TxnTrace) SampledCount() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// PublishedCount returns how many spans were retired into the rings.
func (t *TxnTrace) PublishedCount() uint64 {
	if t == nil {
		return 0
	}
	return t.published.Load()
}

// Reset discards retained spans and counters; the sampling counter keeps
// running.
func (t *TxnTrace) Reset() {
	if t == nil {
		return
	}
	t.sampled.Store(0)
	t.published.Store(0)
	resetRings(t.rings)
}

// Spans returns the retained spans ordered by epoch then SID. Slots never
// written (zero value: no stamps at all) are excluded.
func (t *TxnTrace) Spans() []TxnSpan {
	if t == nil {
		return nil
	}
	all := collectRings(t.rings)
	kept := all[:0]
	for _, s := range all {
		if s.SubmitNS != 0 || s.AssignNS != 0 || s.ExecStart != 0 {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Epoch != kept[j].Epoch {
			return kept[i].Epoch < kept[j].Epoch
		}
		return kept[i].SID < kept[j].SID
	})
	return kept
}

// TxnPhaseStatJSON is one phase's latency summary in the breakdown.
type TxnPhaseStatJSON struct {
	Phase  string `json:"phase"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P95NS  int64  `json:"p95_ns"`
	P99NS  int64  `json:"p99_ns"`
	MaxNS  int64  `json:"max_ns"`
}

// TxnBreakdownJSON is the tail-latency breakdown: where sampled transactions
// spend their time, phase by phase, plus the end-to-end summary.
type TxnBreakdownJSON struct {
	Spans  int                `json:"spans"`
	Phases []TxnPhaseStatJSON `json:"phases"`
	Total  TxnPhaseStatJSON   `json:"total"`
}

func phaseStat(name string, ds []int64) TxnPhaseStatJSON {
	st := TxnPhaseStatJSON{Phase: name}
	if len(ds) == 0 {
		return st
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum int64
	for _, d := range ds {
		sum += d
	}
	pick := func(q float64) int64 {
		i := int(q * float64(len(ds)-1))
		return ds[i]
	}
	st.MeanNS = sum / int64(len(ds))
	st.P50NS = pick(0.50)
	st.P95NS = pick(0.95)
	st.P99NS = pick(0.99)
	st.MaxNS = ds[len(ds)-1]
	return st
}

// Breakdown folds the given spans into the tail-latency breakdown. Aborted
// transactions are included: their lifecycle cost is real.
func Breakdown(spans []TxnSpan) TxnBreakdownJSON {
	var per [NumTxnPhases][]int64
	var totals []int64
	for _, s := range spans {
		ph := s.Phases()
		for i, d := range ph {
			per[i] = append(per[i], d)
		}
		totals = append(totals, s.Total())
	}
	out := TxnBreakdownJSON{Spans: len(spans)}
	for p := TxnPhase(0); p < NumTxnPhases; p++ {
		out.Phases = append(out.Phases, phaseStat(p.String(), per[p]))
	}
	out.Total = phaseStat("total", totals)
	return out
}

// TxnSpanJSON is one span on the serving surface.
type TxnSpanJSON struct {
	SID       uint64 `json:"sid"`
	Epoch     uint64 `json:"epoch"`
	Core      int32  `json:"core"`
	Aborted   bool   `json:"aborted,omitempty"`
	SubmitNS  int64  `json:"submit_ns,omitempty"`
	SealNS    int64  `json:"seal_ns,omitempty"`
	AssignNS  int64  `json:"assign_ns,omitempty"`
	ExecStart int64  `json:"exec_start_ns,omitempty"`
	ExecEnd   int64  `json:"exec_end_ns,omitempty"`
	StagedNS  int64  `json:"staged_ns,omitempty"`
	DurableNS int64  `json:"durable_ns,omitempty"`
	TotalNS   int64  `json:"total_ns"`
}

// TxnsJSON is the /debug/nvcaracal/txns payload.
type TxnsJSON struct {
	SampleEvery uint64           `json:"sample_every"`
	Sampled     uint64           `json:"sampled"`
	Published   uint64           `json:"published"`
	Breakdown   TxnBreakdownJSON `json:"breakdown"`
	Spans       []TxnSpanJSON    `json:"spans"`
}

// maxServedSpans caps the raw spans included in the JSON payload; the
// breakdown still folds every retained span.
const maxServedSpans = 256

// JSON builds the serving payload from the current rings.
func (t *TxnTrace) JSON() TxnsJSON {
	spans := t.Spans()
	out := TxnsJSON{
		SampleEvery: t.SampleEvery(),
		Sampled:     t.SampledCount(),
		Published:   t.PublishedCount(),
		Breakdown:   Breakdown(spans),
	}
	serve := spans
	if len(serve) > maxServedSpans {
		serve = serve[len(serve)-maxServedSpans:]
	}
	out.Spans = make([]TxnSpanJSON, 0, len(serve))
	for _, s := range serve {
		out.Spans = append(out.Spans, TxnSpanJSON{
			SID: s.SID, Epoch: s.Epoch, Core: s.Core, Aborted: s.Aborted,
			SubmitNS: s.SubmitNS, SealNS: s.SealNS, AssignNS: s.AssignNS,
			ExecStart: s.ExecStart, ExecEnd: s.ExecEnd,
			StagedNS: s.StagedNS, DurableNS: s.DurableNS, TotalNS: s.Total(),
		})
	}
	return out
}

// WriteChromeTraceWithTxns writes epoch-phase spans and sampled transaction
// lifecycles into one Chrome trace_event JSON stream. Each txn lifecycle
// renders as consecutive "X" events on a per-core "txn core N" lane (tid =
// 1000+core; 999 for pre-execution/unknown), named by lifecycle phase, so a
// sampled transaction's queue/epoch-wait/execute/epoch-tail/commit-lag path
// lines up under the epoch-phase lanes it traversed.
func WriteChromeTraceWithTxns(w io.Writer, spans []Span, txns []TxnSpan) error {
	tr := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	tids := map[int]bool{}
	meta := func(tid int, name string) {
		if !tids[tid] {
			tids[tid] = true
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": name},
			})
		}
	}
	for _, s := range spans {
		tid := 0
		name := "coordinator"
		if s.Core >= 0 {
			tid = int(s.Core) + 1
			name = fmt.Sprintf("core %d", s.Core)
		}
		meta(tid, name)
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Phase.String(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"epoch": s.Epoch},
		})
	}
	for _, t := range txns {
		tid := 999
		name := "txn (unassigned)"
		if t.Core >= 0 {
			tid = 1000 + int(t.Core)
			name = fmt.Sprintf("txn core %d", t.Core)
		}
		meta(tid, name)
		stamps := [...]int64{t.SubmitNS, t.SealNS, t.AssignNS, t.ExecStart, t.ExecEnd, t.StagedNS, t.DurableNS}
		prev := int64(0)
		for i, ts := range stamps {
			if ts == 0 || ts < prev {
				stamps[i] = prev
			} else {
				prev = ts
			}
		}
		phaseEnds := [NumTxnPhases]int64{stamps[1], stamps[3], stamps[4], stamps[5], stamps[6]}
		start := stamps[0]
		for p := TxnPhase(0); p < NumTxnPhases; p++ {
			end := phaseEnds[p]
			if end <= start {
				start = end
				continue
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "txn-" + p.String(), Ph: "X",
				Ts: float64(start) / 1e3, Dur: float64(end-start) / 1e3,
				Pid: 1, Tid: tid,
				Args: map[string]any{"epoch": t.Epoch, "sid": t.SID},
			})
			start = end
		}
	}
	return writeChrome(w, tr)
}
