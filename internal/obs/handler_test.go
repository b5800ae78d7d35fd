package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testObs() *Obs {
	o := New(Config{Hists: true, Trace: true, Device: true, Cores: 2})
	start := time.Now().Add(-10 * time.Millisecond)
	o.RecordEpoch(3, start, time.Millisecond, 2*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond)
	o.ObserveTxn(0, 40*time.Microsecond)
	o.ObserveTxn(1, 60*time.Microsecond)
	o.Span(0, 3, PhaseMinorGC, time.Now().Add(-time.Microsecond))
	o.Device().Fence.Observe(time.Microsecond)
	return o
}

func TestStatsPayload(t *testing.T) {
	o := testObs()
	p := o.Stats()
	if p.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v", p.UptimeSeconds)
	}
	if p.Epoch.Count != 1 || p.TxnExec.Count != 2 {
		t.Fatalf("epoch/txn counts: %+v %+v", p.Epoch, p.TxnExec)
	}
	for _, name := range []string{"log", "init", "execute", "persist"} {
		if p.Phases[name].Count != 1 {
			t.Fatalf("phase %s count = %d, want 1", name, p.Phases[name].Count)
		}
	}
	if p.Phases["minor-gc"].Count != 1 {
		t.Fatalf("minor-gc count = %d", p.Phases["minor-gc"].Count)
	}
	if p.Device == nil || p.Device.Fence.Count != 1 || p.Device.FenceStallNanos != 1000 {
		t.Fatalf("device: %+v", p.Device)
	}
	// Epoch total must equal the sum of the four epoch phases.
	if p.Epoch.SumNS != 10_000_000 {
		t.Fatalf("epoch sum = %d, want 10ms", p.Epoch.SumNS)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	h := NewHandler(testObs())
	h.AddSource("engine", func() any { return map[string]int{"rows": 42} })

	// Stats endpoint round-trips through the published schema.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", StatsPath, nil))
	if rec.Code != 200 {
		t.Fatalf("stats status %d", rec.Code)
	}
	var p StatsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("stats not schema-valid: %v", err)
	}
	if p.Epoch.Count != 1 || len(p.Phases) == 0 {
		t.Fatalf("payload: %+v", p)
	}
	var engine map[string]int
	if err := json.Unmarshal(p.Extra["engine"], &engine); err != nil || engine["rows"] != 42 {
		t.Fatalf("extra source: %v %v", engine, err)
	}

	// Trace endpoint serves a valid trace_event document, filtered.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", TracePath+"?epochs=5", nil))
	if rec.Code != 200 {
		t.Fatalf("trace status %d", rec.Code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Attrib endpoint serves the attribution payload when the instrument is
	// attached.
	ao := New(Config{Attrib: true})
	var table [NumCauses]CauseCounts
	table[CauseWALAppend] = CauseCounts{LineWrites: 2, BytesWritten: 100, Flushes: 1}
	ao.Attrib().Attach(128, func() [NumCauses]CauseCounts { return table })
	ao.Attrib().SetRegions([]Region{{Name: "wal", Off: 0, Len: 64 * 128}})
	ao.Attrib().RecordWrite(3, 2)
	ah := NewHandler(ao)
	rec = httptest.NewRecorder()
	ah.ServeHTTP(rec, httptest.NewRequest("GET", AttribPath, nil))
	if rec.Code != 200 {
		t.Fatalf("attrib status %d", rec.Code)
	}
	var aj AttribJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &aj); err != nil {
		t.Fatalf("attrib not schema-valid: %v", err)
	}
	if aj.PerCause["wal-append"].LineWrites != 2 {
		t.Fatalf("attrib payload: %+v", aj.PerCause)
	}
	if len(aj.Heatmap.Regions) != 1 || aj.Heatmap.Regions[0].LineWrites != 2 {
		t.Fatalf("attrib heatmap: %+v", aj.Heatmap)
	}

	// Bad query and unknown path.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", TracePath+"?epochs=x", nil))
	if rec.Code != 400 {
		t.Fatalf("bad epochs: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/nvcaracal/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path: status %d, want 404", rec.Code)
	}
}

func TestHandlerNilObs(t *testing.T) {
	h := NewHandler(nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", StatsPath, nil))
	if rec.Code != 200 {
		t.Fatalf("nil-obs stats status %d", rec.Code)
	}
	var p StatsPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", TracePath, nil))
	if rec.Code != 200 {
		t.Fatalf("nil-obs trace status %d", rec.Code)
	}
	// Attrib endpoint degrades to a null document without the instrument.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", AttribPath, nil))
	if rec.Code != 200 {
		t.Fatalf("nil-obs attrib status %d", rec.Code)
	}
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("nil-obs attrib not valid JSON: %v", err)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	h := NewHandler(testObs())
	h.PublishExpvar("nvcaracal-test")
	h.PublishExpvar("nvcaracal-test") // second publish must not panic
}

func TestNilObsAccessors(t *testing.T) {
	var o *Obs
	if o.On() || o.TxnTimed() {
		t.Fatal("nil obs reports enabled")
	}
	o.ObserveTxn(0, time.Second)
	o.Span(0, 1, PhaseExec, time.Now())
	o.RecordEpoch(1, time.Now(), 1, 1, 1, 1)
	if o.Device() != nil || o.Tracer() != nil {
		t.Fatal("nil obs returned instruments")
	}
	if s := o.Stats(); s.Epoch.Count != 0 {
		t.Fatalf("nil stats: %+v", s)
	}
	if s := o.TxnSnapshot(); s.Count != 0 {
		t.Fatalf("nil txn snapshot: %+v", s)
	}
}

// TestHandlerErrorPaths covers the failure branches the smoke jobs lean on:
// unknown endpoints must 404 (not fall through to an empty 200), malformed
// query parameters must 400 with a usable message, and well-formed edge
// values must not.
func TestHandlerErrorPaths(t *testing.T) {
	h := NewHandler(testObs())
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	for _, path := range []string{
		"/debug/nvcaracal/nosuch",
		StatsPath + "/extra",
		"/debug/nvcaracal/",
		"/",
	} {
		if rec := get(path); rec.Code != 404 {
			t.Fatalf("%s: status %d, want 404", path, rec.Code)
		}
	}

	for _, path := range []string{
		TracePath + "?epochs=abc",
		TracePath + "?epochs=1.5",
		TracePath + "?epochs=", // empty value parses as unset? no: "" means absent
		FlightPath + "?last=abc",
		FlightPath + "?last=5", // bare number is not a duration
	} {
		rec := get(path)
		want := 400
		if path == TracePath+"?epochs=" {
			// An empty parameter means "unfiltered", same as omitting it.
			want = 200
		}
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d", path, rec.Code, want)
		}
	}

	// Edge values that must parse: zero and negative epochs select "all",
	// large values are harmlessly clamped by the ring.
	for _, path := range []string{
		TracePath + "?epochs=0",
		TracePath + "?epochs=-1",
		TracePath + "?epochs=999999",
		FlightPath + "?last=0s",
	} {
		if rec := get(path); rec.Code != 200 {
			t.Fatalf("%s: status %d, want 200 (%s)", path, rec.Code, rec.Body.String())
		}
	}
}

// TestHandlerConcurrentReset scrapes /metrics (and the JSON endpoints) while
// Reset and the recording paths run concurrently: the handler must stay
// race-free and keep serving parseable documents. Run under -race in CI.
func TestHandlerConcurrentReset(t *testing.T) {
	o := testObs()
	h := NewHandler(o)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o.RecordEpoch(uint64(i), time.Now().Add(-time.Millisecond), 1, 1, 1, 1)
			o.ObserveTxn(i%2, time.Microsecond)
			if i%7 == 0 {
				o.Reset()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			o.Reset()
		}
	}()
	for i := 0; i < 50; i++ {
		for _, path := range []string{MetricsPath, StatsPath, TracePath} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 {
				t.Fatalf("%s during reset: status %d", path, rec.Code)
			}
			if path == MetricsPath {
				for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					if len(strings.Fields(line)) != 2 {
						t.Fatalf("malformed metrics line during reset: %q", line)
					}
				}
			} else {
				var v any
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("%s during reset: invalid JSON: %v", path, err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
