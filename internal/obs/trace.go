package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Phase classifies an epoch-processing span. The set mirrors where the
// paper says epoch time goes: initialization, execution, the persistence
// fences of the checkpoint, the two collectors, and recovery.
type Phase uint8

const (
	PhaseLog Phase = iota // input-log append + persist
	PhaseInit
	PhaseExec
	PhasePersist // checkpoint: counter/pool/journal flushes, fences, epoch record
	PhaseMinorGC
	PhaseMajorGC
	PhaseRecovery
	// PhaseCommit is the background committer stage of a pipelined epoch:
	// counter stores, parallel pool-checkpoint staging, the index-journal
	// block, the checkpoint fence, and the epoch record. Under an inline
	// commit this work is inside PhasePersist instead.
	PhaseCommit
	// NumPhases bounds phase-indexed iteration: valid phases are
	// Phase(0) <= p < NumPhases.
	NumPhases
)

// PhaseNames lists every phase label in enum order, the schema the stats
// payload and cmd/nvtop report against.
var PhaseNames = []string{"log", "init", "execute", "persist", "minor-gc", "major-gc", "recovery", "commit"}

func (p Phase) String() string {
	if int(p) < len(PhaseNames) {
		return PhaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// CoordinatorCore is the core hint for spans recorded by the epoch
// coordinator (the goroutine driving RunEpoch) rather than a worker core.
const CoordinatorCore = -1

// Span is one recorded phase interval.
type Span struct {
	Epoch uint64
	Phase Phase
	Core  int32 // CoordinatorCore for the epoch coordinator
	Start int64 // wall clock, nanoseconds since the Unix epoch
	Dur   int64 // nanoseconds
}

// Tracer keeps one fixed-size span ring per worker core plus one for the
// epoch coordinator. Recording into a nil *Tracer is a no-op.
type Tracer struct {
	rings []ring[Span] // [0..cores-1] workers, [cores] coordinator
}

// NewTracer returns a tracer for the given worker-core count holding up to
// spansPerCore spans per ring (default 4096 when <= 0).
func NewTracer(cores, spansPerCore int) *Tracer {
	if cores < 1 {
		cores = 1
	}
	if spansPerCore <= 0 {
		spansPerCore = 4096
	}
	return &Tracer{rings: newRings[Span](cores+1, spansPerCore)}
}

// Reset discards every retained span.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	resetRings(t.rings)
}

// Record stores one span. core selects the ring: worker cores index their
// own ring (modulo the ring count), anything out of range — including
// CoordinatorCore — lands in the coordinator ring.
func (t *Tracer) Record(core int, epoch uint64, phase Phase, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	workers := len(t.rings) - 1
	idx := core
	if core < 0 || core >= workers {
		idx = workers
	}
	t.rings[idx].record(Span{
		Epoch: epoch,
		Phase: phase,
		Core:  int32(core),
		Start: start.UnixNano(),
		Dur:   int64(dur),
	})
}

// Spans returns the retained spans of the last n epochs (all retained
// epochs when n <= 0), ordered by start time.
func (t *Tracer) Spans(n int) []Span {
	if t == nil {
		return nil
	}
	all := collectRings(t.rings)
	if n > 0 {
		var maxEpoch uint64
		for _, s := range all {
			if s.Epoch > maxEpoch {
				maxEpoch = s.Epoch
			}
		}
		var low uint64
		if maxEpoch > uint64(n) {
			low = maxEpoch - uint64(n) + 1
		}
		kept := all[:0]
		for _, s := range all {
			if s.Epoch >= low {
				kept = append(kept, s)
			}
		}
		all = kept
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// chromeEvent is one entry of the Chrome trace_event format ("X" complete
// events plus "M" thread-name metadata), loadable by chrome://tracing and
// Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the spans as Chrome trace_event JSON. Worker
// spans map to tid = core+1; coordinator spans map to tid 0.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	tr := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	tids := map[int]bool{}
	for _, s := range spans {
		tid := 0
		if s.Core >= 0 {
			tid = int(s.Core) + 1
		}
		if !tids[tid] {
			tids[tid] = true
			name := "coordinator"
			if tid > 0 {
				name = fmt.Sprintf("core %d", tid-1)
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": name},
			})
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Phase.String(),
			Ph:   "X",
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  1,
			Tid:  tid,
			Args: map[string]any{"epoch": s.Epoch},
		})
	}
	return writeChrome(w, tr)
}

func writeChrome(w io.Writer, tr chromeTrace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
