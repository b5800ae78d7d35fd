package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The debug endpoints Handler serves.
const (
	StatsPath   = "/debug/nvcaracal/stats"
	TracePath   = "/debug/nvcaracal/trace"
	AttribPath  = "/debug/nvcaracal/attrib"
	TxnsPath    = "/debug/nvcaracal/txns"
	FlightPath  = "/debug/nvcaracal/flight"
	MetricsPath = "/debug/nvcaracal/metrics"
)

// StatsPayload is the JSON schema of the stats endpoint. cmd/nvtop and the
// CI smoke validate against this struct, so additions are fine but renames
// are schema breaks.
type StatsPayload struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	TxnExec       HistJSON            `json:"txn_exec"`
	Epoch         HistJSON            `json:"epoch"`
	Phases        map[string]HistJSON `json:"phases"`
	// DurableLag counts completed epochs by Epoch()−DurableEpoch() at
	// completion time; index i is a lag of i epochs (last bucket folds
	// overflows). All zero unless a pipelined commit ran.
	DurableLag []uint64    `json:"durable_lag,omitempty"`
	Device     *DeviceJSON `json:"device,omitempty"`
	// Extra carries host-registered sources (engine counters, memory
	// breakdown, raw device stats) keyed by source name.
	Extra map[string]json.RawMessage `json:"extra,omitempty"`
}

// Stats folds every instrument into the serving payload (without Extra).
func (o *Obs) Stats() StatsPayload {
	p := StatsPayload{Phases: map[string]HistJSON{}}
	if o == nil {
		return p
	}
	p.UptimeSeconds = time.Since(time.Unix(0, o.startNS.Load())).Seconds()
	p.TxnExec = o.txn.Snapshot().JSON()
	p.Epoch = o.epoch.Snapshot().JSON()
	for ph := Phase(0); ph < NumPhases; ph++ {
		p.Phases[ph.String()] = o.phases[ph].Snapshot().JSON()
	}
	lag := o.DurableLagCounts()
	p.DurableLag = lag[:]
	p.Device = o.dev.JSON()
	return p
}

// Handler serves the live introspection endpoints for one Obs:
//
//	GET /debug/nvcaracal/stats            JSON StatsPayload snapshot
//	GET /debug/nvcaracal/trace?epochs=N   Chrome trace_event JSON of the
//	                                      last N epochs (all retained when
//	                                      omitted or <= 0)
//	GET /debug/nvcaracal/attrib           JSON AttribJSON snapshot (null
//	                                      when attribution is off)
//	GET /debug/nvcaracal/txns             JSON TxnsJSON: sampled txn
//	                                      lifecycle spans + tail-latency
//	                                      breakdown
//	GET /debug/nvcaracal/flight?last=5s   JSON FlightJSON: flight-recorder
//	                                      events of the last duration (all
//	                                      retained when omitted)
//	GET /debug/nvcaracal/metrics          Prometheus text exposition of the
//	                                      obs-owned instruments
//
// Hosts register additional snapshot sources (engine counters, memory,
// device stats) with AddSource; each is marshalled fresh per request.
type Handler struct {
	o *Obs

	mu      sync.Mutex
	sources map[string]func() any
}

// NewHandler returns a handler for o (which may be nil: the endpoints then
// serve empty payloads, keeping probes robust).
func NewHandler(o *Obs) *Handler {
	return &Handler{o: o, sources: map[string]func() any{}}
}

// AddSource registers a named extra snapshot source included in the stats
// payload. Safe to call concurrently with serving.
func (h *Handler) AddSource(name string, f func() any) {
	h.mu.Lock()
	h.sources[name] = f
	h.mu.Unlock()
}

func (h *Handler) payload() StatsPayload {
	p := h.o.Stats()
	h.mu.Lock()
	sources := make(map[string]func() any, len(h.sources))
	for k, f := range h.sources {
		sources[k] = f
	}
	h.mu.Unlock()
	if len(sources) > 0 {
		p.Extra = map[string]json.RawMessage{}
		for name, f := range sources {
			b, err := json.Marshal(f())
			if err != nil {
				b, _ = json.Marshal(fmt.Sprintf("marshal error: %v", err))
			}
			p.Extra[name] = b
		}
	}
	return p
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case StatsPath:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h.payload())
	case TracePath:
		n := 0
		if q := r.URL.Query().Get("epochs"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "epochs must be an integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, h.o.Tracer().Spans(n))
	case AttribPath:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h.o.Attrib().JSON())
	case TxnsPath:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h.o.TxnTrace().JSON())
	case FlightPath:
		d := time.Duration(0)
		if q := r.URL.Query().Get("last"); q != "" {
			v, err := time.ParseDuration(q)
			if err != nil {
				http.Error(w, "last must be a duration (e.g. 5s)", http.StatusBadRequest)
				return
			}
			d = v
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h.o.Flight().JSON(d))
	case MetricsPath:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.o.WritePromMetrics(w)
	default:
		http.NotFound(w, r)
	}
}

// expvarOnce guards against double publication: expvar.Publish panics on a
// duplicate name, and tests (or a host restarting its obs layer) may build
// more than one handler per process.
var (
	expvarMu        sync.Mutex
	expvarPublished = map[string]bool{}
)

// PublishExpvar publishes the stats payload under the given expvar name
// (default "nvcaracal" when empty), making it visible on the standard
// /debug/vars endpoint alongside the dedicated handler. Publishing a name
// twice is a no-op (the first handler stays bound): expvar has no rebind.
func (h *Handler) PublishExpvar(name string) {
	if name == "" {
		name = "nvcaracal"
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvarPublished[name] {
		return
	}
	expvarPublished[name] = true
	expvar.Publish(name, expvar.Func(func() any { return h.payload() }))
}
