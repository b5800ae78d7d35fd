package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildPromObs assembles an Obs with every instrument armed and a little
// traffic through each, so the exposition exercises all families.
func buildPromObs(t *testing.T) *Obs {
	t.Helper()
	o := New(Config{Hists: true, Device: true, Attrib: true, TxnTrace: true, TxnSampleEvery: 1, Cores: 2})
	o.ObserveTxn(0, 2*time.Millisecond)
	o.ObserveTxn(1, 4*time.Millisecond)
	o.RecordEpoch(3, time.Now().Add(-time.Millisecond), 100*time.Microsecond, 100*time.Microsecond, 700*time.Microsecond, 100*time.Microsecond)
	o.ObserveDurableLag(1)
	d := o.Device()
	d.Read.Observe(200 * time.Nanosecond)
	d.Write.Observe(400 * time.Nanosecond)
	d.Flush.Observe(600 * time.Nanosecond)
	d.Fence.Observe(800 * time.Nanosecond)
	a := o.Attrib()
	var table [NumCauses]CauseCounts
	table[CauseWALAppend] = CauseCounts{LineWrites: 2, BytesWritten: 128, Flushes: 1}
	table[CausePersistFinal] = CauseCounts{Fences: 1}
	a.Attach(1024, func() [NumCauses]CauseCounts { return table })
	a.RecordWrite(1, 2)
	a.AddLogicalWrite(0, 64, 1)
	a.AddCommitted(0, 64)
	sp := o.TxnTrace().Sample()
	sp.MarkAssign(3, 0)
	sp.MarkExec(0, time.Now(), time.Millisecond, false)
	o.TxnTrace().Publish(sp)
	o.Flight().Record(EvEpochEnd, CoordinatorCore, 3, int64(time.Millisecond), 10)
	return o
}

// TestPromGoldenParse holds the whole exposition to the 0.0.4 text format:
// every non-comment line is `name[{labels}] value` with a parseable float,
// every family is declared by a TYPE comment before its samples, and all
// names carry the nvcaracal_ namespace.
func TestPromGoldenParse(t *testing.T) {
	var sb strings.Builder
	buildPromObs(t).WritePromMetrics(&sb)
	out := sb.String()

	typed := map[string]string{} // family -> type
	var samples int
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("malformed comment line: %q", line)
			}
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		samples++
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("sample line is not `name value`: %q", line)
		}
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "nvcaracal_") {
			t.Fatalf("sample outside the namespace: %q", line)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if h := strings.TrimSuffix(name, suf); h != name && typed[h] == "histogram" {
				family = h
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q has no preceding TYPE declaration", line)
		}
	}
	if samples == 0 {
		t.Fatal("exposition is empty")
	}
	for _, want := range []string{
		"nvcaracal_uptime_seconds", "nvcaracal_txn_exec_seconds",
		"nvcaracal_epoch_seconds", "nvcaracal_phase_seconds",
		"nvcaracal_durable_lag_epochs", "nvcaracal_device_fence_seconds",
		"nvcaracal_nvmm_line_writes_total", "nvcaracal_txn_spans_published_total",
		"nvcaracal_flight_events_retained",
	} {
		if _, ok := typed[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
}

// TestPromHistogramShape checks the exposition's histogram invariants:
// cumulative le buckets are monotonic, and the +Inf bucket equals _count.
func TestPromHistogramShape(t *testing.T) {
	var sb strings.Builder
	buildPromObs(t).WritePromMetrics(&sb)

	const fam = "nvcaracal_txn_exec_seconds"
	var prev int64 = -1
	var inf, count int64 = -1, -1
	var sum string
	for _, line := range strings.Split(sb.String(), "\n") {
		switch {
		case strings.HasPrefix(line, fam+"_bucket{le=\"+Inf\"}"):
			inf, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		case strings.HasPrefix(line, fam+"_bucket"):
			v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("cumulative buckets went backwards at %q (prev %d)", line, prev)
			}
			// The le bound itself must be a float Prometheus accepts.
			le := line[strings.Index(line, `le="`)+4:]
			le = le[:strings.IndexByte(le, '"')]
			if _, err := strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("unparseable le bound in %q: %v", line, err)
			}
			prev = v
		case strings.HasPrefix(line, fam+"_sum"):
			sum = strings.Fields(line)[1]
		case strings.HasPrefix(line, fam+"_count"):
			count, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	if count != 2 {
		t.Fatalf("%s_count = %d, want 2 observations", fam, count)
	}
	if inf != count {
		t.Fatalf("+Inf bucket %d != count %d", inf, count)
	}
	if s, err := strconv.ParseFloat(sum, 64); err != nil || s <= 0 {
		t.Fatalf("%s_sum = %q, want positive float", fam, sum)
	}
}

func TestPromNilObs(t *testing.T) {
	var o *Obs
	var sb strings.Builder
	o.WritePromMetrics(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil obs wrote an exposition:\n%s", sb.String())
	}
}
