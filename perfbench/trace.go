package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
)

// spanName identifies a layer boundary the benchmark times.
type spanName uint8

const (
	spNone     spanName = iota
	spNext              // Source.Next: decode
	spFeed              // Runner-facing Stream.Feed (engine, Sharded, gate or cluster client)
	spTick              // Runner-facing Stream.Tick
	spClose             // Runner-facing Stream.Close (final drain)
	spEngFeed           // the Engine's Feed behind a gate
	spClassify          // BatchClassifier.PredictBatchInto
	spEncode            // encoder.EncodeBatchInto
	spScore             // Scorer.PredictBatchEncoded
	spSink              // the JSONL sink's Consume
	numSpans
)

var spanNames = [numSpans]string{
	"", "source.next", "stream.feed", "stream.tick", "stream.close",
	"engine.feed", "model.classify", "model.encode", "model.score", "sink.consume",
}

// span is one timed call: name, start and end on the benchmark clock, and
// the index of the enclosing span in the same lane (-1 at top level).
type span struct {
	start, end int64
	parent     int32
	name       spanName
}

// recorder keeps spans in memory. The main lane belongs to the Runner
// goroutine and nests through a stack; spans from other goroutines (shard
// workers, cluster read loops) go to the locked async lane with explicit
// parents. Both lanes start in memory mapped outside the Go heap, so
// tracing leaves the GC's pacing, and the Go runtime counters the traced
// run reports, as they are untraced; a lane that outgrows its mapping
// continues on the heap.
type recorder struct {
	main  []span
	stack []int32

	mu    sync.Mutex
	async []span

	mapped [][]byte
}

// Lane capacities: a traced pass of the largest workload records about a
// million main-lane spans and a few tens of thousands of async ones.
const mainSpans, asyncSpans = 1_500_000, 1 << 16

func newRecorder() (*recorder, error) {
	r := &recorder{stack: make([]int32, 0, 8)}
	var err error
	if r.main, err = r.mapSpans(mainSpans); err == nil {
		r.async, err = r.mapSpans(asyncSpans)
	}
	if err != nil {
		r.release()
		return nil, err
	}
	return r, nil
}

// mapSpans maps an empty span slice of capacity n outside the Go heap
// (span holds no pointers).
func (r *recorder) mapSpans(n int) ([]span, error) {
	b, err := mapAnon(n * int(unsafe.Sizeof(span{})))
	if err != nil {
		return nil, err
	}
	r.mapped = append(r.mapped, b)
	return unsafe.Slice((*span)(unsafe.Pointer(unsafe.SliceData(b))), n)[:0], nil
}

// release unmaps the lanes; the recorder must not be used afterwards.
func (r *recorder) release() {
	r.main, r.async = nil, nil
	for _, b := range r.mapped {
		_ = syscall.Munmap(b)
	}
	r.mapped = nil
}

// begin opens a main-lane span under the innermost open one.
func (r *recorder) begin(n spanName) int32 {
	parent := int32(-1)
	if k := len(r.stack); k > 0 {
		parent = r.stack[k-1]
	}
	i := int32(len(r.main))
	r.main = append(r.main, span{parent: parent, name: n, start: now()})
	r.stack = append(r.stack, i)
	return i
}

// end closes the main-lane span i, which must be the innermost open one.
func (r *recorder) end(i int32) {
	r.main[i].end = now()
	r.stack = r.stack[:len(r.stack)-1]
}

// addAsync appends finished spans to the async lane. Parents in ss are
// offsets within ss (-1 for none) and are rebased onto the lane.
func (r *recorder) addAsync(ss ...span) {
	r.mu.Lock()
	base := int32(len(r.async))
	for _, s := range ss {
		if s.parent >= 0 {
			s.parent += base
		}
		r.async = append(r.async, s)
	}
	r.mu.Unlock()
}

// reset drops every recorded span, keeping the buffers.
func (r *recorder) reset() {
	r.main, r.stack = r.main[:0], r.stack[:0]
	r.mu.Lock()
	r.async = r.async[:0]
	r.mu.Unlock()
}

// calSpans is the length of one calibration loop.
const calSpans = 1 << 15

// calibrate measures the recorder's own cost per span, as medians over
// a few loops of calSpans empty spans: inside is the duration an empty
// span reports (about one clock read), outside the time per span that
// falls between spans (the rest of the clock reads and the bookkeeping).
// It overwrites the recorder's spans.
func (r *recorder) calibrate() (inside, outside float64) {
	const n = calSpans
	var ins, outs []float64
	for range 5 {
		r.reset()
		t0 := now()
		for range n {
			r.end(r.begin(spNone))
		}
		wall := now() - t0
		var in int64
		for _, s := range r.main {
			in += s.end - s.start
		}
		ins = append(ins, float64(in)/n)
		outs = append(outs, float64(wall-in)/n)
	}
	r.reset()
	return median(ins), median(outs)
}

// spanTotals folds spans into per-name counts, total and self times.
// Self time is a span's duration minus the durations of its direct
// children. top and topN sum and count the main lane's top-level spans.
type spanTotals struct {
	count, total, self [numSpans]int64
	top, topN          int64
}

func (t *spanTotals) fold(ss []span, main bool) {
	child := make([]int64, len(ss))
	for _, s := range ss {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range ss {
		d := s.end - s.start
		t.count[s.name]++
		t.total[s.name] += d
		t.self[s.name] += d - child[i]
		if main && s.parent < 0 {
			t.top += d
			t.topN++
		}
	}
}

// add accumulates another fold.
func (t *spanTotals) add(o spanTotals) {
	for i := range t.count {
		t.count[i] += o.count[i]
		t.total[i] += o.total[i]
		t.self[i] += o.self[i]
	}
	t.top += o.top
	t.topN += o.topN
}

// totals folds the recorder's current spans.
func (r *recorder) totals() spanTotals {
	var t spanTotals
	t.fold(r.main, true)
	r.mu.Lock()
	t.fold(r.async, false)
	r.mu.Unlock()
	return t
}

// maxSpansWritten caps the span file: one pass of a workload records
// around a million spans, and the file is for inspection, not folding.
const maxSpansWritten = 200_000

// writeSpans writes the recorder's spans (capped per lane) as
// tab-separated lane, index, name, start_ns, end_ns, parent.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "lane\tindex\tname\tstart_ns\tend_ns\tparent")
	r.mu.Lock()
	for _, lane := range []struct {
		name  string
		spans []span
	}{{"main", r.main}, {"async", r.async}} {
		for i, s := range lane.spans[:min(len(lane.spans), maxSpansWritten)] {
			fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%d\n", lane.name, i, spanNames[s.name], s.start, s.end, s.parent)
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStream times the Stream calls of the Runner (or of a gate) and
// forwards everything to the wrapped stream. A spNone name leaves that
// call untimed.
type tracedStream struct {
	pipeline.Stream
	rec               *recorder
	feed, tick, close spanName
}

func (s *tracedStream) Feed(p netflow.Packet) {
	i := s.rec.begin(s.feed)
	s.Stream.Feed(p)
	s.rec.end(i)
}

func (s *tracedStream) TryFeed(p netflow.Packet) bool {
	i := s.rec.begin(s.feed)
	ok := s.Stream.TryFeed(p)
	s.rec.end(i)
	return ok
}

func (s *tracedStream) FeedWithin(p netflow.Packet, wait time.Duration) bool {
	i := s.rec.begin(s.feed)
	ok := s.Stream.FeedWithin(p, wait)
	s.rec.end(i)
	return ok
}

func (s *tracedStream) Tick(t float64) {
	if s.tick == spNone {
		s.Stream.Tick(t)
		return
	}
	i := s.rec.begin(s.tick)
	s.Stream.Tick(t)
	s.rec.end(i)
}

func (s *tracedStream) Close() {
	if s.close == spNone {
		s.Stream.Close()
		return
	}
	i := s.rec.begin(s.close)
	s.Stream.Close()
	s.rec.end(i)
}

// tracedModel is a BatchClassifier over a trained core.Model that
// classifies exactly as Model.PredictBatchInto does (EncodeBatchInto,
// then Scorer.PredictBatchEncoded) with the two stages timed apart. With
// async set it may be called from several goroutines at once.
type tracedModel struct {
	m       *core.Model
	rec     *recorder
	async   bool
	scratch sync.Pool // *hdc.Matrix encode buffers
	calls   atomic.Int64
	rows    atomic.Int64
}

func (t *tracedModel) Predict(x []float32) int { return t.m.Predict(x) }

func (t *tracedModel) PredictBatchInto(x *hdc.Matrix, out []int) {
	enc, _ := t.scratch.Get().(*hdc.Matrix)
	if enc == nil {
		enc = new(hdc.Matrix)
	}
	enc.Resize(x.Rows, t.m.Enc.Dim())
	t.calls.Add(1)
	t.rows.Add(int64(x.Rows))
	if t.async {
		t0 := now()
		encoder.EncodeBatchInto(t.m.Enc, x, enc)
		t1 := now()
		t.m.Scorer().PredictBatchEncoded(enc, out)
		t2 := now()
		t.rec.addAsync(span{start: t0, end: t2, parent: -1, name: spClassify},
			span{start: t0, end: t1, parent: 0, name: spEncode},
			span{start: t1, end: t2, parent: 0, name: spScore})
	} else {
		c := t.rec.begin(spClassify)
		e := t.rec.begin(spEncode)
		encoder.EncodeBatchInto(t.m.Enc, x, enc)
		t.rec.end(e)
		s := t.rec.begin(spScore)
		t.m.Scorer().PredictBatchEncoded(enc, out)
		t.rec.end(s)
		t.rec.end(c)
	}
	t.scratch.Put(enc)
}
