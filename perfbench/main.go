// Command perfbench is cyberhd's benchmark: it replays one named
// workload through the whole detection path (decode, assembly, encode,
// score, sinks, and the shard handoff, admission gate or cluster wire)
// and prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics, after checking every replay's output against a reference.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cic-pcap --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/hdc"
	"cyberhd/internal/telemetry"
)

// commit identifies the code under test; run.sh sets it at link time.
var commit = "unknown"

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short shrinks every capture twentyfold, trains on a tenth of the
	// sessions and sets up once (for the benchmark's tests).
	short    bool
	traceDir string // where the traced run writes its spans; "" skips
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainCode()) }

// mainCode runs the command and returns its exit code.
func mainCode() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (cic-pcap, flood-gated)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same captures and detector")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.BoolVar(&o.short, "short", false, "shrink every capture twentyfold, train on a tenth of the sessions and set up once")
	flag.StringVar(&o.traceDir, "trace-dir", "", "directory for the traced run's span file (none when empty)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// run performs one benchmark run, logging human-readable lines to log.
func run(o options, log io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("perfbench: -seconds must be positive")
	}
	b := &bench{w: w, seed: o.seed, nproc: runtime.NumCPU(), train: trainSessions}
	defer b.closeWorkers()
	reps, sessions := setupReps, w.sessions
	if o.short {
		reps, sessions, b.train = 1, sessions/20, trainSessions/10
	}

	var setups []setupTimes
	for range reps {
		t, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, t)
	}

	in, err := generate(w, o.seed, sessions)
	if err != nil {
		return nil, err
	}
	defer in.img.release()
	b.in = in
	if err := b.buildReference(); err != nil {
		return nil, err
	}
	// The timed phases read only the image; the packet slice would only
	// inflate the heap the phases measure.
	in.packets = nil

	fmt.Fprintf(log, "workload %s: %s\n", w.name, w.why)
	stamp, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": o.seed, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "kernel_float": hdc.KernelPath(), "kernel_packed": bitpack.KernelPath(),
		"commit": commit, "open_loop_pkts_per_s": w.openRate, "tenant_rate": w.tenantRate,
		"scope": "single host, loopback, CPU only; load from one process",
	})
	fmt.Fprintf(log, "env: %s\n", stamp)
	shapeLine, _ := json.Marshal(in.shape)
	fmt.Fprintf(log, "shape: %s\n", shapeLine)

	budget := time.Duration(o.seconds * float64(time.Second))
	rep := &report{log: log, res: &result{Correct: true, Metrics: map[string]metric{}}}
	if o.trace {
		err = b.traced(budget, setups, o.traceDir, rep)
	} else {
		err = b.endToEnd(budget, setups, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep.res, nil
}

// report accumulates a run's metrics and check outcomes.
type report struct {
	log io.Writer
	res *result
}

func (r *report) add(name string, value float64, unit string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(r.log, "%-44s %14.6g %s\n", name, value, unit)
}

// phase folds a phase's attempts, failures and problems into the result.
func (r *report) phase(ph *phase) {
	r.res.Attempted += ph.offered
	r.res.Failed += ph.failed
	for _, p := range ph.problems {
		r.fail("%s", p)
	}
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintf(r.log, "CHECK FAILED: "+format+"\n", args...)
}

// passSeries collects per-pass figures of one kind of pass.
type passSeries struct {
	fps, pps           []float64 // flows and packets per wall second
	offered, processed int
	gc                 goCounters
	last               passResult // the latest pass, records dropped
}

func (s *passSeries) add(r *passResult) {
	s.fps = append(s.fps, float64(r.stats.Flows)/r.wall)
	s.pps = append(s.pps, float64(r.offered)/r.wall)
	s.offered += r.offered
	s.processed += r.stats.Packets
	s.gc.mallocs += r.gc.mallocs
	s.gc.gcs += r.gc.gcs
	s.gc.pauseNs += r.gc.pauseNs
	s.last = *r
	s.last.records = nil
}

// goStats are the Go runtime deltas of a series: allocations per offered
// packet, GC cycles per pass and GC pause per pass (ms).
func (s *passSeries) goStats() (allocsPerPkt, gcPerPass, pauseMsPerPass float64) {
	n := float64(len(s.fps))
	return ratio(float64(s.gc.mallocs), float64(s.offered)), ratio(float64(s.gc.gcs), n),
		ratio(float64(s.gc.pauseNs)/1e6, n)
}

// endToEnd interleaves closed-loop and open-loop passes for the budget and
// reports the end-to-end metrics.
func (b *bench) endToEnd(budget time.Duration, setups []setupTimes, rep *report) error {
	sched := &schedule{nsPerPkt: 1e9 / b.w.openRate, ready: b.ref.ready}
	var closed, open passSeries
	// Latency percentiles are taken over windows of latencyWindow
	// consecutive samples, the fewest that leave ten beyond the p99, and
	// reported as medians over the windows, so the stalls of the shared
	// host, which hit few windows, do not set the figure.
	var p50s, p99s, window, waits []float64
	samples := 0
	var lateMean, lateMax float64
	ph, err := b.runPhase(budget, []passOpts{{topo: b.w.topo}, {topo: b.w.topo, sched: sched}}, func(k int, r *passResult) {
		if k == 0 {
			closed.add(r)
			return
		}
		open.add(r)
		window = append(window, r.latencies...)
		for len(window) >= latencyWindow {
			p50s = append(p50s, quantile(window[:latencyWindow], 0.50))
			p99s = append(p99s, quantile(window[:latencyWindow], 0.99))
			window = window[latencyWindow:]
		}
		samples += len(r.latencies)
		waits = append(waits, r.waits...)
		lateMean = max(lateMean, r.lateMean)
		lateMax = max(lateMax, r.lateMax)
	})
	if err != nil {
		return err
	}
	rep.phase(ph)
	if len(p99s) == 0 && len(window) > 0 {
		// Short runs may not fill one window; use what there is.
		p50s, p99s = []float64{quantile(window, 0.50)}, []float64{quantile(window, 0.99)}
	}
	if samples == 0 {
		rep.fail("the open loop measured no alert latency")
		// Keep the metrics finite.
		p50s, p99s = []float64{0}, []float64{0}
	}

	offered, processed := closed.offered+open.offered, closed.processed+open.processed
	fmt.Fprintf(rep.log, "closed loop: %d passes, flows/s per pass min %.0f median %.0f max %.0f\n",
		len(closed.fps), slices.Min(closed.fps), median(closed.fps), slices.Max(closed.fps))
	fmt.Fprintf(rep.log, "open loop: %d passes at %.0f packets/s offered; pacer behind schedule by %.3f ms mean (worst pass), %.3f ms at most\n",
		len(open.fps), b.w.openRate, lateMean, lateMax)
	fmt.Fprintf(rep.log, "alert latency: %d samples over %d passes in %d windows of %d; per-window p99 min %.3f max %.3f ms\n",
		samples, len(open.fps), len(p99s), latencyWindow, slices.Min(p99s), slices.Max(p99s))
	fmt.Fprintf(rep.log, "alert latency the schedule lays out (micro-batch fill and tick waits, all samples): p50 %.3f p99 %.3f ms\n",
		quantile(waits, 0.50), quantile(waits, 0.99))
	fmt.Fprintf(rep.log, "drop_ratio %.6f (%d of %d offered packets refused by the gate)\n",
		ratio(float64(offered-processed), float64(offered)), offered-processed, offered)
	allocs, gcs, pause := closed.goStats()
	fmt.Fprintf(rep.log, "go runtime over the closed loop: %.3f allocs/packet, %.2f GC cycles/pass, %.3f ms GC pause/pass\n",
		allocs, gcs, pause)

	rep.add("flows_per_s", median(closed.fps), "1/s")
	rep.add("packets_per_s", median(closed.pps), "1/s")
	rep.add("alert_latency_p50_ms", median(p50s), "ms")
	rep.add("alert_latency_p99_ms", median(p99s), "ms")
	rep.add("processed_ratio", ratio(float64(processed), float64(offered)), "ratio")
	rep.add("attack_recall", b.ref.recall, "ratio")
	rep.add("alert_precision", b.ref.precision, "ratio")
	rep.add("heap_peak_mb", ph.heapPeakMB, "MiB")
	rep.add("setup_s", medianOf(setups, setupTimes.total), "s")
	return nil
}

// latencyWindow is how many latency samples each percentile is taken over.
const latencyWindow = 1000

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// coverageTolerance is how far the traced run's top-level spans may miss
// the closed-loop wall time.
const coverageTolerance = 0.10

// traced interleaves untraced and traced closed-loop passes (plus, for a
// workload with shard or wire set, untraced and traced Sharded passes and
// traced cluster passes over the same image) for the budget and reports
// the per-layer metrics.
func (b *bench) traced(budget time.Duration, setups []setupTimes, traceDir string, rep *report) error {
	topo := b.w.topo
	// rec traces the workload's own passes, recShard and recWire the
	// Sharded and cluster passes.
	var recs []*recorder
	defer func() {
		for _, r := range recs {
			r.release()
		}
	}()
	for range 3 {
		r, err := newRecorder()
		if err != nil {
			return err
		}
		recs = append(recs, r)
	}
	rec, recShard, recWire := recs[0], recs[1], recs[2]
	// The tracer's cost is measured after every traced pass, so a slow
	// spell of the host shows in the calibration that corrects that pass.
	cal := &recorder{main: make([]span, 0, calSpans), stack: make([]int32, 0, 1)}
	var spanNs []float64
	calibrated := func() float64 {
		inside, outside := cal.calibrate()
		spanNs = append(spanNs, inside)
		return outside
	}

	var plain, traced, sharded passSeries
	tl, tlShard, tlWire := &layerTotals{}, &layerTotals{}, &layerTotals{}
	var kinds []passOpts
	var folds []func(*passResult)
	kind := func(o passOpts, fold func(*passResult)) {
		kinds = append(kinds, o)
		folds = append(folds, fold)
	}
	kind(passOpts{topo: topo}, plain.add)
	kind(passOpts{topo: topo, rec: rec}, func(r *passResult) {
		traced.add(r)
		tl.add(r, rec, calibrated())
	})
	if b.w.shard {
		kind(passOpts{topo: topoSharded}, sharded.add)
		kind(passOpts{topo: topoSharded, rec: recShard}, func(r *passResult) { tlShard.add(r, recShard, calibrated()) })
	}
	if b.w.wire {
		if err := b.startWorkers(); err != nil {
			return err
		}
		kind(passOpts{topo: topoCluster, rec: recWire}, func(r *passResult) { tlWire.add(r, recWire, calibrated()) })
	}
	ph, err := b.runPhase(budget, kinds, func(k int, r *passResult) { folds[k](r) })
	if err != nil {
		return err
	}
	rep.phase(ph)
	if traceDir != "" {
		path := filepath.Join(traceDir, b.w.name+".spans.tsv")
		if err := rec.writeSpans(path); err != nil {
			return err
		}
		fmt.Fprintf(rep.log, "spans of the last traced pass: %s\n", path)
	}

	feedSpan, scaling := spFeed, 0.0
	if topo == topoGate {
		feedSpan = spEngFeed
	}
	if b.w.shard {
		scaling = median(sharded.fps) / median(plain.fps)
	}
	last := plain.last
	t := &tl.spans
	ns := func(v int64, per float64) float64 { return ratio(float64(v), per) }
	on := func(ok bool, v float64) float64 {
		if ok {
			return v
		}
		return 0
	}

	rep.add("netflow.decode.ns_per_pkt", ns(t.total[spNext], float64(tl.offered)), "ns")
	rep.add("netflow.decode.skipped", float64(last.skipped), "count")
	rep.add("pipeline.feed.self_ns_per_pkt", ns(t.self[feedSpan], float64(t.count[feedSpan])), "ns")
	rep.add("pipeline.tick.calls", ratio(float64(t.count[spTick]), float64(tl.passes)), "count")
	rep.add("pipeline.tick.ns_per_call", ns(t.total[spTick], float64(t.count[spTick])), "ns")
	rep.add("pipeline.close_ms", median(tl.closeMs), "ms")
	hand, wire := &tlShard.spans, &tlWire.spans
	rep.add("pipeline.handoff.ns_per_pkt", on(b.w.shard, ns(hand.total[spFeed], float64(hand.count[spFeed]))), "ns")
	rep.add("pipeline.shard_scaling", scaling, "ratio")
	rep.add("pipeline.gate.self_ns_per_offered_pkt", on(topo == topoGate, ns(t.self[spFeed], float64(tl.offered))), "ns")
	for i, name := range telemetry.DropReasonNames {
		rep.add("pipeline.gate.drops."+name, float64(last.stats.Dropped[i]), "count")
	}
	transitions := int64(0)
	for _, n := range last.snap.OverloadTransitions {
		transitions += n
	}
	rep.add("pipeline.gate.transitions", float64(transitions), "count")
	rows := float64(tl.rows)
	rep.add("model.classify.calls", ratio(float64(tl.calls), float64(tl.passes)), "count")
	rep.add("model.classify.rows_per_call", ratio(rows, float64(tl.calls)), "rows")
	rep.add("model.classify.batch_fill", ratio(rows, float64(tl.calls))/batchSize, "ratio")
	rep.add("model.encode.ns_per_flow", ns(t.total[spEncode], rows), "ns")
	rep.add("model.score.ns_per_flow", ns(t.total[spScore], rows), "ns")
	rep.add("pipeline.sink.ns_per_alert", ns(t.total[spSink], float64(t.count[spSink])), "ns")
	rep.add("pipeline.sink.bytes_per_alert", ratio(float64(last.jsonlBytes), float64(last.stats.Alerts)), "B")
	rep.add("telemetry.verdict_wait_p99_capture_s", histQuantile(last.snap.Latency, 0.99), "s")
	rep.add("cluster.feed.ns_per_pkt", on(b.w.wire, ns(wire.total[spFeed], float64(wire.count[spFeed]))), "ns")
	rep.add("cluster.partition_skew", on(b.w.wire, skew(tlWire.sent)), "ratio")
	rep.add("cluster.close_ms", on(b.w.wire, median(tlWire.closeMs)), "ms")
	rep.add("datasets.build_s", medianOf(setups, func(s setupTimes) float64 { return s.dataset }), "s")
	rep.add("core.train_s", medianOf(setups, func(s setupTimes) float64 { return s.train }), "s")
	rep.add("engine.build_ms", medianOf(setups, func(s setupTimes) float64 { return s.construct * 1e3 }), "ms")
	allocs, gcs, pause := plain.goStats()
	rep.add("go.allocs_per_pkt", allocs, "count")
	rep.add("go.gc_cycles", gcs, "count")
	rep.add("go.gc_pause_ms", pause, "ms")
	untracedFPS, tracedFPS := median(plain.fps), median(traced.fps)
	rep.add("trace.overhead_pct", 100*(untracedFPS-tracedFPS)/untracedFPS, "%")
	cover := median(tl.coverage)
	rep.add("trace.top_level_coverage", cover, "ratio")
	rep.add("trace.empty_span_ns", median(spanNs), "ns")
	fmt.Fprintf(rep.log, "%d untraced and %d traced passes; tracing overhead: flows_per_s %.0f untraced, %.0f traced\n",
		len(plain.fps), len(traced.fps), untracedFPS, tracedFPS)
	fmt.Fprintf(rep.log, "tracer cost: an empty span reads %.1f ns; the tracer spends %.1f ns between spans (medians over passes)\n",
		median(spanNs), median(tl.outsideNs))
	if math.Abs(cover-1) > coverageTolerance {
		rep.fail("top-level spans cover %.3f of the closed-loop wall time (want 1 ± %.2f)", cover, coverageTolerance)
	}
	return nil
}

// layerTotals accumulates the traced passes of one kind.
type layerTotals struct {
	spans             spanTotals
	passes, offered   int
	calls, rows       int64
	closeMs, coverage []float64
	outsideNs         []float64
	sent              []int64 // packets per cluster worker, latest pass
}

// add folds one traced pass, whose spans rec still holds. outsideNs is
// the tracer's calibrated cost per span that falls between spans;
// coverage is taken of the wall time net of it.
func (l *layerTotals) add(r *passResult, rec *recorder, outsideNs float64) {
	t := rec.totals()
	l.spans.add(t)
	l.passes++
	l.offered += r.offered
	if r.model != nil {
		l.calls += r.model.calls.Load()
		l.rows += r.model.rows.Load()
	}
	l.closeMs = append(l.closeMs, float64(t.total[spClose])/1e6)
	l.sent = r.sent
	l.outsideNs = append(l.outsideNs, outsideNs)
	l.coverage = append(l.coverage, float64(t.top)/(r.wall*1e9-float64(t.topN)*outsideNs))
}

// histQuantile reads the q-quantile off a verdict-latency histogram as
// the upper bound of the bucket holding it (the last finite bound when it
// falls in the overflow bucket).
func histQuantile(l telemetry.LatencySnapshot, q float64) float64 {
	if l.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(l.Count)))
	var cum int64
	for i, c := range l.Counts {
		cum += c
		if cum >= target && i < len(l.Bounds) {
			return l.Bounds[i]
		}
	}
	return l.Bounds[len(l.Bounds)-1]
}

// skew is the largest count over the mean count.
func skew(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum, hi int64
	for _, c := range counts {
		sum += c
		hi = max(hi, c)
	}
	return ratio(float64(hi)*float64(len(counts)), float64(sum))
}
