package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark runs %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortRunsEveryWorkload runs every workload end to end in short
// mode, untraced and traced, and checks the outputs pass and carry
// exactly the metrics BENCHMARK.json declares.
func TestShortRunsEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w.name, seed: 3, seconds: 0.3, trace: trace, short: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) not declared as such", w.name, trace, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, name, m.Value)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
					}
				}
			}
			var layers []string
			if trace && w.shard {
				layers = append(layers, "pipeline.handoff.ns_per_pkt", "pipeline.shard_scaling")
			}
			if trace && w.wire {
				layers = append(layers, "cluster.feed.ns_per_pkt", "cluster.partition_skew", "cluster.close_ms")
			}
			for _, name := range layers {
				if res.Metrics[name].Value == 0 {
					t.Errorf("%s: traced run did not measure %s", w.name, name)
				}
			}
		}
	}
}

// shortBench builds a short-mode bench with its detector, capture and
// reference ready.
func shortBench(t *testing.T, name string) *bench {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, seed: 5, nproc: runtime.NumCPU(), train: trainSessions / 10}
	t.Cleanup(b.closeWorkers)
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if b.in, err = generate(w, b.seed, w.sessions/20); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.in.img.release)
	if err := b.buildReference(); err != nil {
		t.Fatal(err)
	}
	return b
}

func mentions(problems []string, s string) bool {
	for _, p := range problems {
		if strings.Contains(p, s) {
			return true
		}
	}
	return false
}

// loseOne silently drops the at-th packet fed to it: neither processed
// nor counted as a drop.
type loseOne struct {
	pipeline.Stream
	n, at int
}

func (l *loseOne) Feed(p netflow.Packet) {
	l.n++
	if l.n != l.at {
		l.Stream.Feed(p)
	}
}

func TestLostPacketFailsConservation(t *testing.T) {
	b := shortBench(t, "cic-pcap")
	clean, err := b.pass(passOpts{topo: b.w.topo})
	if err != nil {
		t.Fatal(err)
	}
	if problems, failed := b.check(clean); len(problems) != 0 || failed != 0 {
		t.Fatalf("clean pass fails its checks: %v", problems)
	}
	b.wrap = func(s pipeline.Stream) pipeline.Stream { return &loseOne{Stream: s, at: 100} }
	r, err := b.pass(passOpts{topo: b.w.topo})
	if err != nil {
		t.Fatal(err)
	}
	problems, failed := b.check(r)
	if !mentions(problems, "conservation") || failed == 0 {
		t.Errorf("a lost packet passed the checks: problems %v, failed %d", problems, failed)
	}
}

// flipOne classifies like its model except for the first row it sees,
// whose class it moves to the next one.
type flipOne struct {
	pipeline.Classifier
	classes int
	done    atomic.Bool
}

func (f *flipOne) PredictBatchInto(x *hdc.Matrix, out []int) {
	f.Classifier.(pipeline.BatchClassifier).PredictBatchInto(x, out)
	if len(out) > 0 && f.done.CompareAndSwap(false, true) {
		out[0] = (out[0] + 1) % f.classes
	}
}

func TestFlippedVerdictFailsCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		topo topology
	}{{"cic-pcap", topoSharded}, {"flood-gated", topoGate}} {
		b := shortBench(t, c.name)
		b.model = &flipOne{Classifier: b.model, classes: len(b.det.ClassNames)}
		r, err := b.pass(passOpts{topo: c.topo})
		if err != nil {
			t.Fatal(err)
		}
		problems, failed := b.check(r)
		if !mentions(problems, "verdicts") || failed == 0 {
			t.Errorf("%s: a flipped verdict passed the checks: problems %v, failed %d", c.name, problems, failed)
		}
	}
}

func TestSkippedPCAPFrameFailsChecks(t *testing.T) {
	b := shortBench(t, "cic-pcap")
	// Retype the first frame's Ethernet payload as ARP, which the decode
	// stack skips: global header 24 bytes, record header 16, ethertype at
	// frame offset 12.
	img := b.in.img.Bytes()
	const ethertype = 24 + 16 + 12
	if img[ethertype] != 0x08 || img[ethertype+1] != 0x00 {
		t.Fatalf("first frame is not IPv4: ethertype %x%x", img[ethertype], img[ethertype+1])
	}
	img[ethertype+1] = 0x06
	if err := verifyImage(img, true, b.in.packets); err == nil {
		t.Error("an image with a skipped frame passed verification")
	}
	r, err := b.pass(passOpts{topo: b.w.topo})
	if err != nil {
		t.Fatal(err)
	}
	problems, _ := b.check(r)
	if !mentions(problems, "skipped 1 frames") || !mentions(problems, "offered") {
		t.Errorf("a skipped frame passed the checks: %v", problems)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	w, err := workloadByName("flood-gated")
	if err != nil {
		t.Fatal(err)
	}
	var images [][]byte
	for range 2 {
		in, err := generate(w, 9, 100)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, append([]byte(nil), in.img.Bytes()...))
		if in.shape.V6Share == 0 || in.shape.V6Share == 1 {
			t.Errorf("v6 share %v, want a mix", in.shape.V6Share)
		}
		in.img.release()
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Error("the same seed generated different images")
	}
}

func TestSnapWriterCutsFrames(t *testing.T) {
	w, err := workloadByName("cic-pcap")
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate(w, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	defer in.img.release()
	img := in.img.Bytes()
	var full bytes.Buffer
	if err := netflow.WritePCAP(&full, in.packets); err != nil {
		t.Fatal(err)
	}
	if len(img) >= full.Len() {
		t.Fatalf("snapped image %d bytes, full %d", len(img), full.Len())
	}
	for off := 24; off < len(img); {
		caplen := int(img[off+8]) | int(img[off+9])<<8 | int(img[off+10])<<16 | int(img[off+11])<<24
		if caplen > snapLen {
			t.Fatalf("record at %d keeps %d bytes, snap length is %d", off, caplen, snapLen)
		}
		off += 16 + caplen
	}
}

func TestNextKindSharesTimeEqually(t *testing.T) {
	const ms = int64(1e6)
	cases := []struct {
		name   string
		spent  []int64
		passes []int
		left   int64
		want   int
	}{
		{"first pass", []int64{0, 0}, []int{0, 0}, 0, 0},
		{"minimum before budget", []int64{3 * ms, 900 * ms}, []int{3, 1}, -ms, 1},
		{"least time spent", []int64{500 * ms, 900 * ms}, []int{50, 3}, 10_000 * ms, 0},
		{"slow kind behind", []int64{1000 * ms, 900 * ms}, []int{100, 3}, 10_000 * ms, 1},
		{"slow pass would overrun", []int64{1000 * ms, 900 * ms}, []int{100, 3}, 100 * ms, 0},
		{"budget spent", []int64{1000 * ms, 900 * ms}, []int{100, 3}, 5 * ms, -1},
	}
	for _, c := range cases {
		if got := nextKind(c.spent, c.passes, c.left); got != c.want {
			t.Errorf("%s: nextKind = %d, want %d", c.name, got, c.want)
		}
	}
}
