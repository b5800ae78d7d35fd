package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// The flight recorder is the engine's always-on evidence trail: a bounded,
// striped ring of small structured events (epoch transitions, fence issues,
// GC, committer handoff and durable publish, recovery stages, submit
// backpressure) with nanosecond timestamps and two-word payloads. Unlike the
// histograms (aggregates) and the span tracer (per-phase durations), the
// flight recorder answers "what was the system doing at 14:02:03.123" after
// the fact — it is dumped automatically when a committer dies on a sticky
// panic, by crashcheck reproducer failures, and on demand via
// /debug/nvcaracal/flight. Recording is a few tens of nanoseconds (one
// uncontended mutex per stripe) and events are per-epoch scale, not per-txn,
// so it stays inside the disabled-overhead budget whenever an Obs is
// attached at all.

// EventType classifies one flight-recorder event. The set mirrors the
// engine's coarse control flow; arguments A and B carry type-specific
// payloads documented per constant.
type EventType uint8

const (
	// EvEpochStart: an epoch began. A = batch size.
	EvEpochStart EventType = iota
	// EvEpochEnd: an epoch completed. A = duration ns, B = committed txns.
	EvEpochEnd
	// EvFence: an engine-level ordering fence was issued. A = Cause.
	EvFence
	// EvGCBegin: major collection phase 1 started. A = pending rows.
	EvGCBegin
	// EvGCEnd: major collection phase 2 finished. A = duration ns.
	EvGCEnd
	// EvCommitHandoff: the pipelined checkpoint was handed to the committer.
	EvCommitHandoff
	// EvCommitJoin: a caller joined the in-flight commit (WaitDurable or the
	// mid-epoch barrier). A = wait ns.
	EvCommitJoin
	// EvDurablePublish: an epoch's record became durable. A = commit stage
	// duration ns.
	EvDurablePublish
	// EvRecoveryStage: one recovery stage finished. A = RecoveryStage,
	// B = stage-specific count (txns decoded, rows scanned, rows reverted,
	// txns replayed).
	EvRecoveryStage
	// EvBackpressure: the submit queue was full when a client arrived.
	// A = queue capacity.
	EvBackpressure
	// EvPanic: a committer or epoch goroutine captured a panic.
	EvPanic
	// EvWatchTrigger: the anomaly watchdog fired. A = incident ordinal.
	EvWatchTrigger
	// NumEvents bounds event-indexed iteration.
	NumEvents
)

// EventNames lists the stable serving-surface names, in enum order.
var EventNames = [NumEvents]string{
	"epoch-start", "epoch-end", "fence", "gc-begin", "gc-end",
	"commit-handoff", "commit-join", "durable-publish", "recovery-stage",
	"backpressure", "panic", "watch-trigger",
}

func (t EventType) String() string {
	if int(t) < len(EventNames) {
		return EventNames[t]
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// RecoveryStage enumerates the A argument of EvRecoveryStage events.
type RecoveryStage int64

const (
	RecoveryLoad RecoveryStage = iota
	RecoveryScan
	RecoveryRevert
	RecoveryReplay
)

var recoveryStageNames = []string{"load", "scan", "revert", "replay"}

func (s RecoveryStage) String() string {
	if int(s) >= 0 && int(s) < len(recoveryStageNames) {
		return recoveryStageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int64(s))
}

// FlightEvent is one recorded event.
type FlightEvent struct {
	TS    int64 // wall clock, nanoseconds since the Unix epoch
	Epoch uint64
	A, B  int64
	Type  EventType
	Core  int32 // CoordinatorCore for coordinator/committer events
}

// Describe renders the event's payload as a short human string.
func (e FlightEvent) Describe() string {
	switch e.Type {
	case EvEpochStart:
		return fmt.Sprintf("batch=%d", e.A)
	case EvEpochEnd:
		return fmt.Sprintf("dur=%v committed=%d", time.Duration(e.A), e.B)
	case EvFence:
		return fmt.Sprintf("cause=%v", Cause(e.A))
	case EvGCBegin:
		return fmt.Sprintf("pending=%d", e.A)
	case EvGCEnd:
		return fmt.Sprintf("dur=%v", time.Duration(e.A))
	case EvCommitJoin:
		return fmt.Sprintf("wait=%v", time.Duration(e.A))
	case EvDurablePublish:
		return fmt.Sprintf("commit=%v", time.Duration(e.A))
	case EvRecoveryStage:
		return fmt.Sprintf("stage=%v n=%d", RecoveryStage(e.A), e.B)
	case EvBackpressure:
		return fmt.Sprintf("queue-cap=%d", e.A)
	case EvWatchTrigger:
		return fmt.Sprintf("incident=%d", e.A)
	default:
		if e.A != 0 || e.B != 0 {
			return fmt.Sprintf("a=%d b=%d", e.A, e.B)
		}
		return ""
	}
}

// flightStripes is the number of event rings. Events from a known worker
// core go to that core's stripe (modulo); coordinator events share stripe 0,
// which is fine — they are serialized by the epoch loop anyway.
const flightStripes = 8

// Flight is the recorder. Recording into a nil *Flight is a no-op, so
// engine call sites stay unconditional.
type Flight struct {
	rings  []ring[FlightEvent] // flightStripes of them
	crashW io.Writer           // destination of DumpOnCrash; os.Stderr by default
}

// NewFlight returns a recorder retaining up to perStripe events in each of
// its stripes (default 2048 when <= 0).
func NewFlight(perStripe int) *Flight {
	if perStripe <= 0 {
		perStripe = 2048
	}
	return &Flight{rings: newRings[FlightEvent](flightStripes, perStripe), crashW: os.Stderr}
}

// SetCrashWriter redirects DumpOnCrash output (tests use a buffer).
func (f *Flight) SetCrashWriter(w io.Writer) {
	if f != nil {
		f.crashW = w
	}
}

// Record stores one event stamped now.
func (f *Flight) Record(t EventType, core int, epoch uint64, a, b int64) {
	if f == nil {
		return
	}
	idx := 0
	if core > 0 {
		idx = core % flightStripes
	}
	f.rings[idx].record(FlightEvent{
		TS: time.Now().UnixNano(), Epoch: epoch, A: a, B: b,
		Type: t, Core: int32(core),
	})
}

// Reset discards every retained event.
func (f *Flight) Reset() {
	if f == nil {
		return
	}
	resetRings(f.rings)
}

// Events returns the retained events with TS >= since (all when since <= 0),
// ordered by timestamp. Zero-TS slots (never written) are excluded.
func (f *Flight) Events(since int64) []FlightEvent {
	if f == nil {
		return nil
	}
	all := collectRings(f.rings)
	kept := all[:0]
	for _, e := range all {
		if e.TS != 0 && e.TS >= since {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].TS < kept[j].TS })
	return kept
}

// Tail returns the events of the last d (all retained when d <= 0).
func (f *Flight) Tail(d time.Duration) []FlightEvent {
	if f == nil {
		return nil
	}
	var since int64
	if d > 0 {
		since = time.Now().Add(-d).UnixNano()
	}
	return f.Events(since)
}

// Dump renders the events of the last d (all retained when d <= 0) as a
// human-readable table, newest last.
func (f *Flight) Dump(w io.Writer, d time.Duration) {
	if f == nil {
		fmt.Fprintln(w, "flight recorder: not attached")
		return
	}
	evs := f.Tail(d)
	if len(evs) == 0 {
		fmt.Fprintln(w, "flight recorder: no events retained")
		return
	}
	fmt.Fprintf(w, "flight recorder: %d events\n", len(evs))
	for _, e := range evs {
		core := "coord"
		if e.Core >= 0 {
			core = fmt.Sprintf("core%d", e.Core)
		}
		fmt.Fprintf(w, "  %s %-6s epoch=%-6d %-16s %s\n",
			time.Unix(0, e.TS).Format("15:04:05.000000"), core, e.Epoch,
			e.Type, e.Describe())
	}
}

// DumpOnCrash records an EvPanic event and dumps the last few seconds of
// evidence to the crash writer (stderr by default). The engine calls it from
// the committer's sticky-panic capture; crashcheck calls it when a
// reproducer fails.
func (f *Flight) DumpOnCrash(reason string) {
	if f == nil {
		return
	}
	f.Record(EvPanic, CoordinatorCore, 0, 0, 0)
	w := f.crashW
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "flight recorder: dumping last 5s on crash: %s\n", reason)
	f.Dump(w, 5*time.Second)
}

// FlightEventJSON is the serving form of one event.
type FlightEventJSON struct {
	TSNanos int64  `json:"ts_ns"`
	Type    string `json:"type"`
	Epoch   uint64 `json:"epoch"`
	Core    int32  `json:"core"`
	A       int64  `json:"a"`
	B       int64  `json:"b"`
	Detail  string `json:"detail,omitempty"`
}

// FlightJSON is the /debug/nvcaracal/flight payload.
type FlightJSON struct {
	Events []FlightEventJSON `json:"events"`
}

// JSON folds the last d (all when d <= 0) into the serving payload.
func (f *Flight) JSON(d time.Duration) FlightJSON {
	evs := f.Tail(d)
	out := FlightJSON{Events: make([]FlightEventJSON, 0, len(evs))}
	for _, e := range evs {
		out.Events = append(out.Events, FlightEventJSON{
			TSNanos: e.TS, Type: e.Type.String(), Epoch: e.Epoch,
			Core: e.Core, A: e.A, B: e.B, Detail: e.Describe(),
		})
	}
	return out
}
