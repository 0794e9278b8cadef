package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"cyberhd"
	"cyberhd/internal/cluster"
	"cyberhd/internal/core"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

// setupReps is how many times a run builds the detector; setup_s is the
// median.
const setupReps = 5

// trainSessions is the CIC session budget the detector trains on, as
// `cyberhd detect` does by default.
const trainSessions = 3000

// bench is one run of one workload.
type bench struct {
	w     workload
	seed  uint64
	nproc int
	train int // CIC sessions the detector trains on

	det   *cyberhd.Detector
	model pipeline.Classifier // det.Model (the tests plant faulty ones)
	cow   *core.COWModel      // for cluster passes
	// workers serve the cluster workload at addrs.
	workers []*cluster.Worker
	addrs   []string

	in  *input
	ref reference

	// wrap, when set, wraps every detector newStream builds (the tests
	// plant faults through it).
	wrap func(pipeline.Stream) pipeline.Stream
}

// setupTimes is one detector build, by stage.
type setupTimes struct {
	dataset, train, construct float64 // seconds
}

func (t setupTimes) total() float64 { return t.dataset + t.train + t.construct }

// setup builds the detector the way `cyberhd detect` does and then the
// workload's engine, gate or sharded engine, timing each stage. It keeps
// the detector for the run.
func (b *bench) setup() (setupTimes, error) {
	var t setupTimes
	t0 := now()
	ds := cyberhd.CICIDS2017(b.train, b.seed)
	t1 := now()
	det, err := cyberhd.TrainDetector(ds, cyberhd.DefaultConfig())
	if err != nil {
		return t, err
	}
	t2 := now()
	b.det, b.model = det, det.Model
	h, err := b.newStream(b.w.topo, b.model, nil, nil, nil)
	if err != nil {
		return t, err
	}
	t3 := now()
	h.stream.Close()
	t.dataset, t.train, t.construct = float64(t1-t0)/1e9, float64(t2-t1)/1e9, float64(t3-t2)/1e9
	return t, nil
}

// startWorkers starts one in-process cluster worker per CPU and the COW
// model the client replicates to them. The COW wrapper takes the model as
// its working copy; the engines keep reading it directly, which is safe
// because nothing updates it.
func (b *bench) startWorkers() error {
	for i := 0; i < b.nproc; i++ {
		w, err := cluster.NewWorker("127.0.0.1:0", cluster.WorkerConfig{})
		if err != nil {
			return err
		}
		go func() { _ = w.Serve() }()
		b.workers = append(b.workers, w)
		b.addrs = append(b.addrs, w.Addr())
	}
	b.cow = core.NewCOWModel(b.det.Model)
	return nil
}

// closeWorkers stops the cluster workers, waiting for their sessions.
func (b *bench) closeWorkers() {
	for _, w := range b.workers {
		_ = w.Close()
	}
	b.workers, b.addrs = nil, nil
}

// reference is the expected output of every pass, from replays of the
// generated packets through a SliceSource into the workload's own
// single-process detector: an Engine at the workload's batch size,
// behind the gate for the gated workload. Sharded and cluster passes
// must match it too.
type reference struct {
	stats   pipeline.Stats
	records []alertRecord // sorted
	// ready maps each alerted flow to the index of the packet whose
	// arrival made its verdict possible: the packet that completed it,
	// or the one whose timestamp crossed the tick boundary that evicted
	// it. Flows only the final drain completed are absent.
	ready map[alertKey]int
	// attack recall and alert precision against the generator's labels.
	recall, precision float64
}

// buildReference replays the generated packets twice: once at the
// workload's batch size for the expected counts and alerts, and once
// unbatched, skipping the packets the first replay's gate refused, to
// learn from which Runner call each alert's flow completed. Both replays
// must agree on the alerts.
func (b *bench) buildReference() error {
	n := len(b.in.packets)
	dropped := make([]bool, n)
	tap := &tapSource{src: netflow.NewSliceSource(b.in.packets)}
	sink := &benchSink{jsonl: pipeline.NewJSONLSink(&countWriter{})}
	h, err := b.newStream(b.w.topo, b.model, []pipeline.AlertSink{sink}, nil,
		func(netflow.Packet, telemetry.DropReason) { dropped[tap.n-1] = true })
	if err != nil {
		return err
	}
	stats, err := (&pipeline.Runner{Stream: h.stream, Source: tap}).Run(context.Background())
	if err != nil {
		return err
	}
	if lost := tap.n - stats.Packets - stats.DroppedTotal(); tap.n != n || lost != 0 {
		return fmt.Errorf("perfbench: reference replay offered %d of %d packets, %d unaccounted", tap.n, n, lost)
	}
	slices.SortFunc(sink.records, compareRecords)
	b.ref.stats, b.ref.records = stats, sink.records

	// The unbatched replay: alerts fire inside the call that completed
	// the flow.
	rs := &readyStream{dropped: dropped, ready: make(map[alertKey]int)}
	e, err := pipeline.New(pipeline.Config{
		Model: b.model, Normalizer: b.det.Normalizer, ClassNames: b.det.ClassNames,
		OnAlert: rs.alert,
	})
	if err != nil {
		return err
	}
	rs.Stream = e
	if _, err := (&pipeline.Runner{Stream: rs, Source: netflow.NewSliceSource(b.in.packets)}).Run(context.Background()); err != nil {
		return err
	}
	slices.SortFunc(rs.records, compareRecords)
	if d := diffRecords(rs.records, b.ref.records); d != 0 {
		return fmt.Errorf("perfbench: unbatched reference differs from the batch-%d reference in %d alerts", batchSize, d)
	}
	b.ref.ready = rs.ready

	attacks := 0
	for _, l := range b.in.labels {
		if l != traffic.Benign {
			attacks++
		}
	}
	hit := make(map[netflow.FlowKey]bool)
	onAttack := 0
	for _, r := range b.ref.records {
		if l, ok := b.in.labels[r.Key]; ok && l != traffic.Benign {
			onAttack++
			hit[r.Key] = true
		}
	}
	b.ref.recall = ratio(float64(len(hit)), float64(attacks))
	b.ref.precision = ratio(float64(onAttack), float64(len(b.ref.records)))
	return nil
}

// readyStream forwards the Runner's calls to an unbatched Engine, skips
// the packets marked dropped, and notes which packet's arrival the call
// in progress answers, so alerts can be stamped with it. The Runner
// ticks just before feeding the packet that crossed the tick boundary.
type readyStream struct {
	pipeline.Stream
	dropped []bool
	next    int // index of the next packet to arrive
	event   int // packet index of the call in progress; -1 during the final drain

	ready   map[alertKey]int
	records []alertRecord
}

func (s *readyStream) Feed(p netflow.Packet) {
	s.event = s.next
	s.next++
	if !s.dropped[s.event] {
		s.Stream.Feed(p)
	}
}

func (s *readyStream) Tick(t float64) {
	s.event = s.next
	s.Stream.Tick(t)
}

func (s *readyStream) Close() {
	s.event = -1
	s.Stream.Close()
}

func (s *readyStream) alert(a pipeline.Alert) {
	r := recordOf(a)
	s.records = append(s.records, r)
	if s.event >= 0 {
		s.ready[alertKey{r.Key, r.Last}] = s.event
	}
}

// diffRecords counts the records in one sorted slice and not the other.
func diffRecords(a, b []alertRecord) int {
	d := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := compareRecords(a[i], b[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			d++
			i++
		default:
			d++
			j++
		}
	}
	return d + len(a) - i + len(b) - j
}

// check compares one pass with the reference: every offered packet
// processed or dropped for a counted reason, the same verdict counts by
// class and drop counts by reason, the same alerts, and no decoder skip
// or cluster error. It returns the failures found and a count of failed
// operations (unaccounted packets plus differing alerts and verdicts).
func (b *bench) check(r passResult) (problems []string, failed int) {
	if r.offered != b.in.n {
		problems = append(problems, fmt.Sprintf("offered %d packets, the capture holds %d", r.offered, b.in.n))
		failed += abs(r.offered - b.in.n)
	}
	if lost := r.offered - r.stats.Packets - r.stats.DroppedTotal(); lost != 0 {
		problems = append(problems, fmt.Sprintf("conservation: offered %d != processed %d + dropped %d",
			r.offered, r.stats.Packets, r.stats.DroppedTotal()))
		failed += abs(lost)
	}
	ref := b.ref.stats
	if r.stats.Dropped != ref.Dropped {
		problems = append(problems, fmt.Sprintf("drops by reason %v, reference %v", r.stats.Dropped, ref.Dropped))
	}
	verdicts := abs(r.stats.Flows - ref.Flows)
	for i := range max(len(r.stats.ByClass), len(ref.ByClass)) {
		verdicts += abs(at(r.stats.ByClass, i) - at(ref.ByClass, i))
	}
	if verdicts != 0 || r.stats.Alerts != ref.Alerts {
		problems = append(problems, fmt.Sprintf("verdicts: flows %d alerts %d by class %v, reference flows %d alerts %d by class %v",
			r.stats.Flows, r.stats.Alerts, r.stats.ByClass, ref.Flows, ref.Alerts, ref.ByClass))
		failed += verdicts
	}
	slices.SortFunc(r.records, compareRecords)
	if d := diffRecords(r.records, b.ref.records); d != 0 {
		problems = append(problems, fmt.Sprintf("%d alert records differ from the reference", d))
		failed += d
	}
	if r.skipped != 0 {
		problems = append(problems, fmt.Sprintf("decoder skipped %d frames", r.skipped))
		failed += r.skipped
	}
	if r.clientErr != nil {
		problems = append(problems, fmt.Sprintf("cluster client: %v", r.clientErr))
		failed++
	}
	return problems, failed
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func at(xs []int, i int) int {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// goCounters are Go runtime counters, read at pass boundaries.
type goCounters struct {
	mallocs, gcs, pauseNs uint64
}

func readGo() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{mallocs: m.Mallocs, gcs: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

func (g goCounters) sub(o goCounters) goCounters {
	return goCounters{mallocs: g.mallocs - o.mallocs, gcs: g.gcs - o.gcs, pauseNs: g.pauseNs - o.pauseNs}
}

// phase is a run of interleaved passes of one or more kinds.
type phase struct {
	offered  int
	failed   int
	problems []string
	// heapPeakMB is the median over passes of each pass's sampled peak
	// of heap bytes in use, less the heap live when the phase began.
	heapPeakMB float64
}

// minRounds is the fewest passes of each kind a phase makes, however
// long they take.
const minRounds = 3

// runPhase replays the image, pass after pass, checking every pass
// against the reference, until budget has passed and every kind has made
// at least minRounds passes. Each kind gets an equal share of the time:
// the next pass is of the kind that has run least so far, so a kind of
// quick passes (the closed loop) makes many passes while a kind of slow
// ones (the paced open loop) makes a few, and the kinds stay interleaved
// over the whole phase, so a slow spell of the shared host lands on all
// of them. Once every kind has its minimum, no pass starts that its
// kind's mean pass time says would end past the budget. onPass sees
// each pass, with its kind's index, before the next.
func (b *bench) runPhase(budget time.Duration, kinds []passOpts, onPass func(int, *passResult)) (*phase, error) {
	ph := &phase{}
	// Twice: the first collection moves sync.Pool contents to the victim
	// cache, which only the second frees, so the baseline holds no
	// pooled scratch a pass would free again.
	runtime.GC()
	runtime.GC()
	h := newHeapSampler()
	baseline := h.read()
	var peaks []float64
	spent := make([]int64, len(kinds)) // ns of passes of each kind
	passes := make([]int, len(kinds))
	start := now()
	for {
		k := nextKind(spent, passes, int64(budget)-(now()-start))
		if k < 0 {
			break
		}
		o := kinds[k]
		t0 := now()
		o.heap = h
		h.peak = 0
		r, err := b.pass(o)
		if err != nil {
			return nil, err
		}
		h.sample()
		peaks = append(peaks, float64(max(h.peak, baseline)-baseline)/(1<<20))
		p, f := b.check(r)
		ph.problems = append(ph.problems, p...)
		ph.failed += f
		ph.offered += r.offered
		onPass(k, &r)
		spent[k] += now() - t0
		passes[k]++
	}
	ph.heapPeakMB = median(peaks)
	return ph, nil
}

// nextKind picks the kind of runPhase's next pass from the time spent on
// and the passes made by each kind, with left ns of the budget to go: a
// kind short of minRounds first, else the kind with the least time spent
// among those whose mean pass fits in what is left; -1 ends the phase.
func nextKind(spent []int64, passes []int, left int64) int {
	k := -1
	for i := range spent {
		if passes[i] < minRounds {
			if k < 0 || spent[i] < spent[k] {
				k = i
			}
		}
	}
	if k >= 0 {
		return k
	}
	for i := range spent {
		if spent[i]/int64(passes[i]) <= left && (k < 0 || spent[i] < spent[k]) {
			k = i
		}
	}
	return k
}
