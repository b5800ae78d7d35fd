// Command nvtop reads a running engine's observability endpoint
// (/debug/nvcaracal/stats, served by nvload/nvbench under -obs-addr) and
// prints a latency report: per-phase and end-to-end epoch histograms,
// transaction execution latency, and device-level read/write/flush/fence
// latency with the fence-stall total.
//
// One-shot by default; with -interval it polls and reports the delta of
// each window (counts and histogram buckets are differenced, so percentiles
// describe just that window's activity):
//
//	nvtop -addr 127.0.0.1:8077
//	nvtop -addr 127.0.0.1:8077 -interval 2s -count 10
//
// When the engine serves the attribution endpoint (/debug/nvcaracal/attrib)
// the report ends with an attribution panel: NVMM line write-backs broken
// down by logical cause, the per-region spatial rollup, and the
// write-amplification summary (cumulative; not differenced in -interval
// mode).
//
// When the engine samples transaction lifecycles (nvload -txn-sample) the
// report adds a tail-latency breakdown panel: where sampled transactions
// spend their time across queue, epoch-wait, execute, epoch-tail, and
// commit-lag (from /debug/nvcaracal/txns).
//
// With -selfcheck it validates the endpoints instead: the stats payload must
// parse against the schema and carry non-zero epoch counts, the trace
// endpoint must serve loadable Chrome trace JSON with at least one span, and
// the attribution payload must parse with per-cause counters consistent with
// its write-amplification totals. It further checks the flight recorder
// (/flight must retain epoch-start/epoch-end/durable-publish events), the
// txn-lifecycle endpoint (/txns span counts must be consistent with the
// txn-exec histogram totals at the advertised sampling rate), and the
// Prometheus endpoint (/metrics must golden-parse as text exposition with
// the core families present). The selfcheck expects an engine running the
// epoch pipeline (nvload -pipeline): the background committer's "commit"
// phase must be populated alongside the four epoch phases. The CI
// observability smoke runs exactly this against a pipelined nvload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nvcaracal/internal/obs"
	"nvcaracal/internal/prof"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8077", "host:port of the engine's -obs-addr")
		interval  = flag.Duration("interval", 0, "poll interval (0 = one-shot)")
		count     = flag.Int("count", 0, "number of interval reports (0 = until interrupted)")
		selfcheck = flag.Bool("selfcheck", false, "validate the stats and trace endpoints, then exit")
		timeout   = flag.Duration("timeout", 5*time.Second, "HTTP timeout per request")
	)
	flag.Parse()

	client := &http.Client{Timeout: *timeout}
	base := "http://" + *addr

	if *selfcheck {
		if err := runSelfcheck(client, base); err != nil {
			fatal(err)
		}
		fmt.Println("selfcheck ok")
		return
	}

	prev, err := fetchStats(client, base)
	if err != nil {
		fatal(err)
	}
	if *interval <= 0 {
		report(os.Stdout, prev, nil)
		reportTxns(os.Stdout, client, base)
		reportAttrib(os.Stdout, client, base)
		return
	}
	for i := 0; *count == 0 || i < *count; i++ {
		time.Sleep(*interval)
		cur, err := fetchStats(client, base)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("--- window %v ---\n", interval)
		report(os.Stdout, cur, &prev)
		reportTxns(os.Stdout, client, base)
		reportAttrib(os.Stdout, client, base)
		prev = cur
	}
}

func fetchStats(client *http.Client, base string) (obs.StatsPayload, error) {
	var p obs.StatsPayload
	resp, err := client.Get(base + obs.StatsPath)
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("stats endpoint: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return p, fmt.Errorf("stats payload: %w", err)
	}
	return p, nil
}

// report prints one latency table. With prev != nil each histogram is
// differenced against the previous sample first.
func report(w io.Writer, cur obs.StatsPayload, prev *obs.StatsPayload) {
	diff := func(c, p obs.HistJSON) obs.HistSnapshot {
		s := c.Snapshot()
		if prev != nil {
			s = s.Sub(p.Snapshot())
		}
		return s
	}
	row := func(name string, c, p obs.HistJSON) {
		s := diff(c, p)
		if s.Count == 0 {
			fmt.Fprintf(w, "%-12s %10s\n", name, "-")
			return
		}
		fmt.Fprintf(w, "%-12s %10d  p50<%-10v p99<%-10v max %-10v mean %v\n",
			name, s.Count,
			time.Duration(s.Percentile(50)), time.Duration(s.Percentile(99)),
			time.Duration(s.Max), time.Duration(s.Mean()))
	}

	fmt.Fprintf(w, "uptime %.1fs\n", cur.UptimeSeconds)
	fmt.Fprintf(w, "%-12s %10s\n", "histogram", "count")
	row("epoch", cur.Epoch, prevOr(prev).Epoch)
	row("txn-exec", cur.TxnExec, prevOr(prev).TxnExec)
	names := make([]string, 0, len(cur.Phases))
	for name := range cur.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row("  "+name, cur.Phases[name], prevOr(prev).Phases[name])
	}
	// Durable lag: epochs completed while the previous epoch's commit was
	// still in flight. All-zero (and omitted) unless the pipeline ran; a
	// lag beyond 1 should never appear with the depth-1 pipeline.
	if lag := diffLag(cur.DurableLag, prevOr(prev).DurableLag); lagTotal(lag) > 0 {
		fmt.Fprintf(w, "%-12s %10d ", "durable-lag", lagTotal(lag))
		for i, n := range lag {
			fmt.Fprintf(w, " lag%d=%d", i, n)
		}
		fmt.Fprintln(w)
	}
	if cur.Device != nil {
		d := cur.Device
		var pd obs.DeviceJSON
		if p := prevOr(prev).Device; p != nil {
			pd = *p
		}
		row("dev-read", d.Read, pd.Read)
		row("dev-write", d.Write, pd.Write)
		row("dev-flush", d.Flush, pd.Flush)
		row("dev-fence", d.Fence, pd.Fence)
		stall := d.FenceStallNanos - pd.FenceStallNanos
		fmt.Fprintf(w, "%-12s %10s  total %v\n", "fence-stall", "", time.Duration(stall))
	}
}

// fetchAttrib reads the attribution endpoint. A nil payload (served as JSON
// null when the engine runs without the attribution instrument) is not an
// error — callers skip the panel.
func fetchAttrib(client *http.Client, base string) (*obs.AttribJSON, error) {
	resp, err := client.Get(base + obs.AttribPath)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("attrib endpoint: HTTP %d", resp.StatusCode)
	}
	var aj *obs.AttribJSON
	if err := json.NewDecoder(resp.Body).Decode(&aj); err != nil {
		return nil, fmt.Errorf("attrib payload: %w", err)
	}
	return aj, nil
}

// reportAttrib prints the attribution panel: per-cause write-backs sorted by
// volume, the named-region spatial rollup, and the cumulative
// write-amplification line. Silently absent when the engine does not serve
// attribution.
func reportAttrib(w io.Writer, client *http.Client, base string) {
	aj, err := fetchAttrib(client, base)
	if err != nil || aj == nil {
		return
	}
	fmt.Fprintf(w, "\nattribution (NVMM traffic by cause)\n")
	fmt.Fprintf(w, "%-20s %12s %12s %12s %14s\n", "cause", "line-reads", "line-writes", "flushes", "bytes-written")
	names := make([]string, 0, len(aj.PerCause))
	for name := range aj.PerCause {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := aj.PerCause[names[i]], aj.PerCause[names[j]]
		if ci.Flushes != cj.Flushes {
			return ci.Flushes > cj.Flushes
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		c := aj.PerCause[name]
		fmt.Fprintf(w, "%-20s %12d %12d %12d %14d\n",
			name, c.LineReads, c.LineWrites, c.Flushes, c.BytesWritten)
	}
	if regs := aj.Heatmap.Regions; len(regs) > 0 {
		var total int64
		for _, r := range regs {
			total += r.LineWrites
		}
		total += aj.Heatmap.UnmappedWrites
		fmt.Fprintf(w, "regions:")
		for _, r := range regs {
			fmt.Fprintf(w, " %s %.0f%%", r.Name, pct(r.LineWrites, total))
		}
		if aj.Heatmap.UnmappedWrites > 0 {
			fmt.Fprintf(w, " unmapped %.0f%%", pct(aj.Heatmap.UnmappedWrites, total))
		}
		fmt.Fprintln(w)
	}
	cum := aj.WriteAmp.Cumulative
	fmt.Fprintf(w, "write-amp %.2fx (row traffic %.2fx), persist-all ratio %.2fx — %d write-backs for %d committed bytes\n",
		cum.WriteAmp, cum.RowWriteAmp, cum.PersistAllRatio, cum.TotalLines, cum.CommittedBytes)
}

// fetchTxns reads the txn-lifecycle endpoint. An engine without txn tracing
// serves the zero payload (sample_every 0), which callers treat as absent.
func fetchTxns(client *http.Client, base string) (obs.TxnsJSON, error) {
	var tj obs.TxnsJSON
	resp, err := client.Get(base + obs.TxnsPath)
	if err != nil {
		return tj, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tj, fmt.Errorf("txns endpoint: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tj); err != nil {
		return tj, fmt.Errorf("txns payload: %w", err)
	}
	return tj, nil
}

// fetchFlight reads the flight-recorder endpoint.
func fetchFlight(client *http.Client, base string) (obs.FlightJSON, error) {
	var fj obs.FlightJSON
	resp, err := client.Get(base + obs.FlightPath)
	if err != nil {
		return fj, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fj, fmt.Errorf("flight endpoint: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fj); err != nil {
		return fj, fmt.Errorf("flight payload: %w", err)
	}
	return fj, nil
}

// reportTxns prints the sampled-transaction tail-latency breakdown panel.
// Silently absent when the engine runs without txn tracing.
func reportTxns(w io.Writer, client *http.Client, base string) {
	tj, err := fetchTxns(client, base)
	if err != nil || tj.SampleEvery == 0 || tj.Breakdown.Spans == 0 {
		return
	}
	fmt.Fprintf(w, "\ntxn lifecycle (1 in %d sampled; %d spans retained)\n",
		tj.SampleEvery, tj.Breakdown.Spans)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n", "phase", "mean", "p50", "p99", "max")
	for _, p := range append(tj.Breakdown.Phases, tj.Breakdown.Total) {
		fmt.Fprintf(w, "%-12s %12v %12v %12v %12v\n", p.Phase,
			time.Duration(p.MeanNS).Round(time.Microsecond),
			time.Duration(p.P50NS).Round(time.Microsecond),
			time.Duration(p.P99NS).Round(time.Microsecond),
			time.Duration(p.MaxNS).Round(time.Microsecond))
	}
}

// diffLag subtracts the previous durable-lag sample bucket-wise (counters
// are cumulative) for interval mode; prev is empty in one-shot mode.
func diffLag(cur, prev []uint64) []uint64 {
	out := make([]uint64, len(cur))
	for i, n := range cur {
		if i < len(prev) && prev[i] <= n {
			n -= prev[i]
		}
		out[i] = n
	}
	return out
}

func lagTotal(lag []uint64) uint64 {
	var t uint64
	for _, n := range lag {
		t += n
	}
	return t
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// prevOr returns the previous payload or a zero payload for one-shot mode.
func prevOr(p *obs.StatsPayload) obs.StatsPayload {
	if p == nil {
		return obs.StatsPayload{}
	}
	return *p
}

// runSelfcheck validates both endpoints the way the CI smoke needs.
func runSelfcheck(client *http.Client, base string) error {
	p, err := fetchStats(client, base)
	if err != nil {
		return err
	}
	if p.Epoch.Count == 0 {
		return fmt.Errorf("stats: epoch histogram is empty")
	}
	for _, name := range []string{"log", "init", "execute", "persist", "commit"} {
		if p.Phases[name].Count == 0 {
			return fmt.Errorf("stats: phase %q histogram is empty", name)
		}
	}
	if p.Epoch.P50NS <= 0 || p.Epoch.P99NS < p.Epoch.P50NS {
		return fmt.Errorf("stats: implausible epoch percentiles: %+v", p.Epoch)
	}

	resp, err := client.Get(base + obs.TracePath)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace endpoint: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("trace payload: %w", err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	for _, name := range []string{"log", "init", "execute", "persist", "commit"} {
		if spans[name] == 0 {
			return fmt.Errorf("trace: no %q spans (got %v)", name, spans)
		}
	}

	// Attribution endpoint: must parse, and when the instrument is attached
	// (always, under nvload -obs-addr) its counters must be internally
	// consistent — some cause recorded write-backs, and the cumulative
	// write-amp window folds those same counters.
	aj, err := fetchAttrib(client, base)
	if err != nil {
		return err
	}
	if aj == nil {
		return fmt.Errorf("attrib: payload is null (instrument not attached)")
	}
	if len(aj.PerCause) == 0 {
		return fmt.Errorf("attrib: no causes recorded")
	}
	var flushes, elided, fences int64
	for _, c := range aj.PerCause {
		flushes += c.Flushes
		elided += c.FlushesElided
		fences += c.Fences
	}
	if flushes == 0 {
		return fmt.Errorf("attrib: no write-backs attributed")
	}
	if fences == 0 {
		return fmt.Errorf("attrib: no fences attributed (committed epochs must order their writes)")
	}
	cum := aj.WriteAmp.Cumulative
	// Elided flushes are skipped write-backs: reported per cause, but they
	// must stay out of the write-amplification fold.
	if elided > 0 && cum.TotalLines == flushes+elided {
		return fmt.Errorf("attrib: %d elided flushes leaked into write-amp total_lines", elided)
	}
	if cum.TotalLines != flushes {
		return fmt.Errorf("attrib: cumulative total_lines %d != per-cause flushes %d", cum.TotalLines, flushes)
	}
	if cum.CommittedBytes > 0 && cum.WriteAmp <= 0 {
		return fmt.Errorf("attrib: implausible write-amp: %+v", cum)
	}
	if len(aj.Heatmap.BucketLineWrites) == 0 {
		return fmt.Errorf("attrib: heatmap has no buckets")
	}

	// Flight recorder: the always-on ring must have retained the run's epoch
	// transitions and durable publishes.
	fj, err := fetchFlight(client, base)
	if err != nil {
		return err
	}
	if len(fj.Events) == 0 {
		return fmt.Errorf("flight: no events retained")
	}
	kinds := map[string]int{}
	for _, ev := range fj.Events {
		kinds[ev.Type]++
	}
	for _, k := range []string{"epoch-start", "epoch-end", "durable-publish"} {
		if kinds[k] == 0 {
			return fmt.Errorf("flight: no %q events (got %v)", k, kinds)
		}
	}

	// Txn lifecycle: when the engine samples (nvload -txn-sample) the span
	// counts must be consistent with the txn-exec histogram at the advertised
	// rate. Loose 4x bounds: ring eviction, aborted re-runs, and edge batches
	// blur the exact ratio.
	tj, err := fetchTxns(client, base)
	if err != nil {
		return err
	}
	if tj.SampleEvery > 0 {
		if tj.Published == 0 {
			return fmt.Errorf("txns: sampling on (1 in %d) but no spans published", tj.SampleEvery)
		}
		if tj.Published > tj.Sampled {
			return fmt.Errorf("txns: published %d > sampled %d", tj.Published, tj.Sampled)
		}
		if n := p.TxnExec.Count; n > 0 {
			expect := uint64(n) / tj.SampleEvery
			if expect >= 4 && (tj.Sampled > 4*expect+4 || 4*tj.Sampled+4 < expect) {
				return fmt.Errorf("txns: sampled %d spans for %d executed txns at 1-in-%d (expected ~%d)",
					tj.Sampled, n, tj.SampleEvery, expect)
			}
		}
		if tj.Breakdown.Spans == 0 {
			return fmt.Errorf("txns: %d published spans but empty breakdown", tj.Published)
		}
		if tj.Breakdown.Total.P50NS <= 0 {
			return fmt.Errorf("txns: implausible breakdown total: %+v", tj.Breakdown.Total)
		}
	}

	// Prometheus endpoint: the text exposition must golden-parse (every
	// sample line is "name[{labels}] value") and carry the core families.
	body, err := fetchMetrics(client, base)
	if err != nil {
		return err
	}
	for _, want := range []string{
		"# TYPE nvcaracal_epoch_seconds histogram",
		"nvcaracal_epoch_seconds_count",
		"nvcaracal_uptime_seconds",
		"nvcaracal_flight_events_retained",
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("metrics: missing %q", want)
		}
	}
	if tj.SampleEvery > 0 && !strings.Contains(body, "nvcaracal_txn_spans_published_total") {
		return fmt.Errorf("metrics: txn sampling on but no nvcaracal_txn_spans_published_total")
	}
	samples := 0
	for i, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("metrics: line %d not 'name value': %q", i+1, line)
		}
		if !strings.HasPrefix(fields[0], "nvcaracal_") {
			return fmt.Errorf("metrics: line %d outside the nvcaracal namespace: %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("metrics: line %d value: %v", i+1, err)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("metrics: no samples")
	}

	// Profiling endpoints: a 100ms CPU capture must come back as a valid
	// pprof profile (the repo-local decoder must parse it and find the
	// cpu/nanoseconds column), and bad parameters must be rejected.
	resp, err = client.Get(base + prof.PprofPath + "profile?seconds=0.1")
	if err != nil {
		return err
	}
	body2, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pprof profile: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body2)))
	}
	pp, err := prof.Parse(body2)
	if err != nil {
		return fmt.Errorf("pprof profile: not a valid pprof encoding: %w", err)
	}
	if _, err := pp.SampleIndex("cpu"); err != nil {
		return fmt.Errorf("pprof profile: %v (types %+v)", err, pp.SampleTypes)
	}
	if pp.DurationNanos <= 0 {
		return fmt.Errorf("pprof profile: missing duration_nanos")
	}
	resp, err = client.Get(base + prof.PprofPath + "profile?epochs=abc")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("pprof profile?epochs=abc: HTTP %d, want 400", resp.StatusCode)
	}
	return nil
}

// fetchMetrics reads the Prometheus text-exposition endpoint.
func fetchMetrics(client *http.Client, base string) (string, error) {
	resp, err := client.Get(base + obs.MetricsPath)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics endpoint: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		return "", fmt.Errorf("metrics endpoint: content-type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nvtop:", err)
	os.Exit(1)
}
