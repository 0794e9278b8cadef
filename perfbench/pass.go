package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"cyberhd/internal/cluster"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
)

// alertRecord is the comparable identity of one alert: what the JSONL
// record carries, with the flow key kept whole.
type alertRecord struct {
	Key         netflow.FlowKey
	Class       int
	First, Last float64
	Packets     int
	Bytes       float64
}

func recordOf(a pipeline.Alert) alertRecord {
	f := a.Flow
	return alertRecord{
		Key: f.Key, Class: a.Class, First: f.FirstTime, Last: a.Time,
		Packets: f.TotalPackets(), Bytes: f.TotalBytes(),
	}
}

// compareRecords orders records by last-packet time, first-packet time,
// flow key, then the remaining fields; 0 means equal.
func compareRecords(a, b alertRecord) int {
	if c := cmp.Compare(a.Last, b.Last); c != 0 {
		return c
	}
	if c := cmp.Compare(a.First, b.First); c != 0 {
		return c
	}
	if c := compareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Packets, b.Packets); c != 0 {
		return c
	}
	return cmp.Compare(a.Bytes, b.Bytes)
}

func compareKeys(a, b netflow.FlowKey) int {
	if c := a.IPA.Compare(b.IPA); c != 0 {
		return c
	}
	if c := a.IPB.Compare(b.IPB); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PortA, b.PortA); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PortB, b.PortB); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// alertKey finds an alert's flow in the open-loop schedule.
type alertKey struct {
	key  netflow.FlowKey
	last float64
}

// schedule is the open loop's timetable: packets are offered at a fixed
// rate in capture order, packet i due on the benchmark clock at
// start + i*nsPerPkt. ready maps each alerted flow to the index of the
// packet whose arrival made its verdict possible (the packet that
// completed it, or the one whose timestamp crossed the tick boundary
// that evicted it); flows absent from it were completed only by the
// end-of-input drain.
type schedule struct {
	start    int64
	nsPerPkt float64
	ready    map[alertKey]int
}

func (s *schedule) due(i int) int64 { return s.start + int64(float64(i)*s.nsPerPkt) }

// benchSink is the benchmark's alert sink: it forwards every alert to a
// JSONL sink (timed when tracing), records it for the output checks and,
// in the open loop, its latency from the schedule and the share of it
// that is the schedule's own wait.
type benchSink struct {
	jsonl *pipeline.JSONLSink
	rec   *recorder
	async bool // called from goroutines other than the Runner's
	sched *schedule
	tap   *tapSource // the open loop's source, read on the Runner's goroutine

	records   []alertRecord
	latencies []float64 // ms
	// waits are, per latency sample, the ms from the due time of the
	// packet that made the verdict possible to the due time of the packet
	// on whose arrival the alert came out: the wait for a micro-batch to
	// fill or a tick to flush it, as the schedule lays it out. The rest of
	// the latency is the detector's work and the pacer's lag.
	waits []float64
}

func (s *benchSink) Consume(a pipeline.Alert) {
	at := now()
	switch {
	case s.rec == nil:
		s.jsonl.Consume(a)
	case s.async:
		s.jsonl.Consume(a)
		s.rec.addAsync(span{start: at, end: now(), parent: -1, name: spSink})
	default:
		i := s.rec.begin(spSink)
		s.jsonl.Consume(a)
		s.rec.end(i)
	}
	r := recordOf(a)
	s.records = append(s.records, r)
	if s.sched != nil {
		if i, ok := s.sched.ready[alertKey{r.Key, r.Last}]; ok {
			s.latencies = append(s.latencies, float64(at-s.sched.due(i))/1e6)
			s.waits = append(s.waits, float64(s.sched.due(s.tap.n-1)-s.sched.due(i))/1e6)
		}
	}
}

// countWriter discards what is written to it, counting bytes.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// heapEvery is the packet cadence of heap sampling.
const heapEvery = 4096

// heapSampler tracks the peak of Go heap bytes in use (live and not yet
// swept objects).
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

func (h *heapSampler) sample() {
	if v := h.read(); v > h.peak {
		h.peak = v
	}
}

// sleepSlack is how far ahead of its schedule the open-loop pacer may
// deliver a packet instead of sleeping: sleeps shorter than this
// overshoot by more than they wait.
const sleepSlack = 50 * time.Microsecond

// scheduleLead is how far after a pass begins its first packet is due.
const scheduleLead = 20 * time.Millisecond

// tapSource wraps the image decoder: it counts offered packets, samples
// the heap, times Next when tracing, and in the open loop holds each
// packet until its due time, sleeping (see sleepFor) when ahead.
type tapSource struct {
	src   netflow.PacketSource
	rec   *recorder
	heap  *heapSampler
	sched *schedule

	n                int
	lateSum, lateMax int64
}

func (t *tapSource) Next(p *netflow.Packet) error {
	var err error
	if t.rec != nil {
		i := t.rec.begin(spNext)
		err = t.src.Next(p)
		t.rec.end(i)
	} else {
		err = t.src.Next(p)
	}
	if err != nil {
		return err
	}
	t.n++
	if t.heap != nil && t.n%heapEvery == 0 {
		t.heap.sample()
	}
	if t.sched != nil {
		due := t.sched.due(t.n - 1)
		d := due - now()
		if d > int64(sleepSlack) {
			sleepFor(time.Duration(d))
			d = due - now()
		}
		if d < 0 {
			t.lateSum -= d
			t.lateMax = max(t.lateMax, -d)
		}
	}
	return nil
}

// handle is one constructed detector: the stream the Runner drives and
// what the benchmark reads from it afterwards.
type handle struct {
	stream   pipeline.Stream
	client   *cluster.Client // topoCluster only
	snapshot func() telemetry.Snapshot
}

// newStream builds the detector of a topology around model, fanning
// alerts to sinks. A non-nil rec times the Runner-facing calls (and the
// Engine behind a gate); onDrop observes the gate's refusals.
func (b *bench) newStream(topo topology, model pipeline.Classifier, sinks []pipeline.AlertSink,
	rec *recorder, onDrop func(netflow.Packet, telemetry.DropReason)) (handle, error) {
	cfg := pipeline.Config{
		Model: model, Normalizer: b.det.Normalizer, ClassNames: b.det.ClassNames,
		BatchSize: batchSize, Sinks: sinks,
	}
	var h handle
	switch topo {
	case topoEngine, topoGate:
		e, err := pipeline.New(cfg)
		if err != nil {
			return h, err
		}
		h.stream = e
		if topo == topoGate {
			var inner pipeline.Stream = e
			if rec != nil {
				inner = &tracedStream{Stream: e, rec: rec, feed: spEngFeed}
			}
			h.stream = pipeline.NewGate(inner, pipeline.OverloadPolicy{
				Mode: pipeline.OverloadBounded, TenantRate: b.w.tenantRate, OnDrop: onDrop,
			})
		}
		h.snapshot = e.Telemetry().Snapshot
	case topoSharded:
		cfg.Shards = b.nproc
		s, err := pipeline.NewSharded(cfg)
		if err != nil {
			return h, err
		}
		h.stream, h.snapshot = s, s.Telemetry().Snapshot
	case topoCluster:
		c, err := cluster.Dial(cluster.ClientConfig{
			Workers: b.addrs, Model: b.cow, Normalizer: b.det.Normalizer,
			ClassNames: b.det.ClassNames, BatchSize: batchSize, Sinks: sinks,
		})
		if err != nil {
			return h, err
		}
		h.stream, h.client, h.snapshot = c, c, c.MergedSnapshot
	default:
		return h, fmt.Errorf("perfbench: unknown topology %d", topo)
	}
	if b.wrap != nil {
		h.stream = b.wrap(h.stream)
	}
	if rec != nil {
		h.stream = &tracedStream{Stream: h.stream, rec: rec, feed: spFeed, tick: spTick, close: spClose}
	}
	return h, nil
}

// passOpts selects one replay of the workload's image.
type passOpts struct {
	topo  topology
	rec   *recorder    // nil: untraced
	sched *schedule    // nil: closed loop
	heap  *heapSampler // nil: no heap sampling
}

// passResult is what one replay produced.
type passResult struct {
	wall       float64 // seconds inside Runner.Run
	offered    int
	stats      pipeline.Stats
	snap       telemetry.Snapshot
	records    []alertRecord
	latencies  []float64 // ms, open loop
	waits      []float64 // ms of each latency sample the schedule lays out
	lateMean   float64   // ms the pacer ran behind, per packet
	lateMax    float64   // ms
	jsonlBytes int64
	skipped    int
	sent       []int64 // packets per cluster worker
	model      *tracedModel
	clientErr  error
	gc         goCounters // Go runtime deltas over the pass
}

// pass replays the workload's image once through a fresh detector.
func (b *bench) pass(o passOpts) (passResult, error) {
	var r passResult
	src, skipped, err := openImage(b.in.img.Bytes(), b.in.pcap)
	if err != nil {
		return r, err
	}
	tap := &tapSource{src: src, rec: o.rec, heap: o.heap, sched: o.sched}
	cw := &countWriter{}
	async := o.topo == topoSharded || o.topo == topoCluster
	if async && o.sched != nil {
		// The sink reads the pacer's position, which only the Runner's
		// goroutine may do.
		return r, fmt.Errorf("perfbench: the open loop needs a synchronous topology, not %d", o.topo)
	}
	sink := &benchSink{jsonl: pipeline.NewJSONLSink(cw), rec: o.rec, async: async, sched: o.sched, tap: tap}
	model := b.model
	if o.rec != nil && o.topo != topoCluster {
		r.model = &tracedModel{m: b.det.Model, rec: o.rec, async: async}
		model = r.model
	}
	if o.sched != nil {
		// Fixed before any detector goroutine starts, so every reader
		// sees it; the lead covers the detector's construction.
		o.sched.start = now() + int64(scheduleLead)
	}
	if o.rec != nil {
		o.rec.reset()
	}
	h, err := b.newStream(o.topo, model, []pipeline.AlertSink{sink}, o.rec, nil)
	if err != nil {
		return r, err
	}
	runner := &pipeline.Runner{Stream: h.stream, Source: tap}
	g0 := readGo()
	t0 := now()
	stats, err := runner.Run(context.Background())
	r.wall = float64(now()-t0) / 1e9
	r.gc = readGo().sub(g0)
	if err != nil {
		return r, err
	}
	if err := sink.jsonl.Err(); err != nil {
		return r, err
	}
	r.offered, r.stats, r.snap = tap.n, stats, h.snapshot()
	r.records, r.latencies, r.waits = sink.records, sink.latencies, sink.waits
	r.jsonlBytes, r.skipped = cw.n, skipped()
	if tap.n > 0 {
		r.lateMean = float64(tap.lateSum) / float64(tap.n) / 1e6
	}
	r.lateMax = float64(tap.lateMax) / 1e6
	if h.client != nil {
		r.sent = h.client.SentPerWorker()
		r.clientErr = h.client.Err()
	}
	return r, nil
}
