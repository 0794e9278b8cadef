package cyberhd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// serveDetector trains one CIC detector shared by the serving tests.
func serveDetector(t *testing.T) *Detector {
	t.Helper()
	det, err := TrainDetector(CICIDS2017(1200, 3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// directStats hand-drives every packet through the stream cfg describes
// and returns the drained stats.
func directStats(t *testing.T, cfg EngineConfig, pkts []Packet) EngineStats {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		s.Feed(pkts[i])
	}
	s.Close()
	return s.Stats()
}

// TestServeMatchesDirectEngine pins the one-call path end to end: Serve
// over a slice source produces stats bit-identical to hand-driving the
// engine, and the JSONL sink captures every alert.
func TestServeMatchesDirectEngine(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	cfg := det.EngineConfig()
	if cfg.Model != det.Model || cfg.Normalizer != det.Normalizer || len(cfg.ClassNames) != len(det.ClassNames) {
		t.Fatal("EngineConfig does not carry the detector's model, normalizer and class names")
	}
	cfg.BatchSize = 32
	want := directStats(t, cfg, live.Packets)

	var jsonl bytes.Buffer
	sink := NewJSONLSink(&jsonl)
	cfg.Sinks = []AlertSink{sink}
	got, err := Serve(context.Background(), cfg, NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	if got.Packets != want.Packets || got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("Serve %+v != direct %+v", got, want)
	}
	for c := range want.ByClass {
		if got.ByClass[c] != want.ByClass[c] {
			t.Fatalf("ByClass[%d]: serve %d != direct %d", c, got.ByClass[c], want.ByClass[c])
		}
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(jsonl.String(), "\n")
	if lines != got.Alerts {
		t.Fatalf("JSONL sink wrote %d lines for %d alerts", lines, got.Alerts)
	}
	if got.Alerts == 0 {
		t.Fatal("degenerate capture: no alerts")
	}
}

// TestServeShardedQuantized exercises the one-call path at its heaviest:
// flow-sharded, micro-batched, 8-bit quantized — stats must match the
// plain float engine bit-for-bit except where quantization changes
// verdicts, so pin against a sharded direct drive at the same width.
func TestServeShardedQuantized(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	cfg := det.EngineConfig()
	cfg.Shards, cfg.BatchSize, cfg.Quantize = 4, 32, W8
	want := directStats(t, cfg, live.Packets)

	got, err := Serve(context.Background(), cfg, NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	if got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("Serve %+v != direct sharded %+v", got, want)
	}
}

// TestServeCancel pins that the facade surfaces cancellation with the
// partial stats, and that a nil source is refused up front.
func TestServeCancel(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first packet
	st, err := Serve(ctx, det.EngineConfig(), NewSliceSource(live.Packets))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Packets != 0 {
		t.Fatalf("fed %d packets under a dead context", st.Packets)
	}
	if _, err := Serve(context.Background(), det.EngineConfig(), nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestServeReplayTraffic drives Serve from the traffic generator's
// live-replay source (unpaced) and pins equivalence with the slice source.
func TestServeReplayTraffic(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	a, err := Serve(context.Background(), det.EngineConfig(), NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Serve(context.Background(), det.EngineConfig(), ReplayTraffic(live, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Packets != b.Packets || a.Flows != b.Flows || a.Alerts != b.Alerts {
		t.Fatalf("replay source %+v != slice source %+v", b, a)
	}
}

// TestServeWithMetrics serves a run behind a live admin endpoint: the
// endpoint answers /healthz before the first packet, the engine and the
// endpoint share one collector, the runner's progress snapshots end on
// the settled totals, and the scraped /metrics page reports exactly the
// returned stats.
func TestServeWithMetrics(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	tel := NewTelemetry(det.ClassNames)
	srv, err := ServeMetrics("127.0.0.1:0", tel.Snapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}

	cfg := det.EngineConfig()
	cfg.Telemetry, cfg.BatchSize = tel, 16
	stream, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []TelemetrySnapshot
	r := &Runner{
		Stream: stream, Source: NewSliceSource(live.Packets),
		ProgressInterval: 5,
		Progress:         func(s TelemetrySnapshot) { snaps = append(snaps, s) },
	}
	st, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	final := tel.Snapshot()
	if int(final.Packets) != st.Packets || int(final.Flows) != st.Flows || int(final.Alerts) != st.Alerts {
		t.Fatalf("collector %+v != stats %+v", final, st)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots")
	}
	if last := snaps[len(snaps)-1]; last.Packets != final.Packets {
		t.Fatalf("final progress snapshot %d packets, want %d", last.Packets, final.Packets)
	}
	page := get("/metrics")
	for _, want := range []string{
		fmt.Sprintf("cyberhd_packets_total %d\n", st.Packets),
		fmt.Sprintf("cyberhd_flows_total %d\n", st.Flows),
		fmt.Sprintf("cyberhd_alerts_total %d\n", st.Alerts),
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
}

// TestServeWithMetricsBadAddr pins the error path: an unbindable address
// fails up front instead of serving blind.
func TestServeWithMetricsBadAddr(t *testing.T) {
	tel := NewTelemetry([]string{"benign"})
	if srv, err := ServeMetrics("256.0.0.1:99999", tel.Snapshot, nil); err == nil {
		srv.Close()
		t.Fatal("bound an impossible address")
	}
}

// TestBoundedPolicyMatchesLossless pins the overload opt-in through
// EngineConfig: a bounded policy (tenant key and drop callback included)
// makes NewStream install a Gate, and a permissive bounded policy over
// the synchronous engine serves verdicts bit-identical to the lossless
// default with every drop counter at zero.
func TestBoundedPolicyMatchesLossless(t *testing.T) {
	det := serveDetector(t)
	live := GenerateTraffic(TrafficConfig{Sessions: 200, Seed: 31})

	cfg := det.EngineConfig()
	cfg.Overload = OverloadPolicy{
		Mode:       OverloadBounded,
		TenantRate: 5,
		TenantKey:  func(p *Packet) uint64 { return uint64(p.SrcIP.V4()) },
		OnDrop:     func(Packet, DropReason) {},
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Gate); !ok {
		t.Fatalf("bounded policy built %T, want *Gate", s)
	}
	s.Close()

	// Functional equivalence: lossless default vs permissive bounded
	// policy (no tenant rate, synchronous engine that always admits).
	want, err := Serve(context.Background(), det.EngineConfig(), NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overload = OverloadPolicy{Mode: OverloadBounded}
	got, err := Serve(context.Background(), cfg, NewSliceSource(live.Packets))
	if err != nil {
		t.Fatal(err)
	}
	if got.Packets != want.Packets || got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("bounded-permissive %+v != lossless %+v", got, want)
	}
	for c := range want.ByClass {
		if got.ByClass[c] != want.ByClass[c] {
			t.Fatalf("ByClass[%d]: bounded %d != lossless %d", c, got.ByClass[c], want.ByClass[c])
		}
	}
	if want.DroppedTotal() != 0 || got.DroppedTotal() != 0 {
		t.Fatalf("drop counters nonzero: lossless %d, bounded-permissive %d",
			want.DroppedTotal(), got.DroppedTotal())
	}
}
