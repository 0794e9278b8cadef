package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cyberhd/internal/netflow"
)

// alertFor fabricates an alert with a given class and capture time.
func alertFor(class int, at float64) Alert {
	f := &netflow.Flow{
		Key:         netflow.FlowKey{IPA: netflow.IPv4(10, 0, 0, 1), IPB: netflow.IPv4(172, 16, 0, 10), PortA: 1234, PortB: 443, Proto: netflow.TCP},
		InitSrcIP:   netflow.IPv4(10, 0, 0, 1),
		InitSrcPort: 1234,
		FirstTime:   at - 1,
		LastTime:    at,
	}
	return Alert{Flow: f, Class: class, ClassName: "attack", Time: at}
}

func TestChanSink(t *testing.T) {
	ch := make(chan Alert, 4)
	var sink AlertSink = ChanSink(ch)
	sink.Consume(alertFor(1, 5))
	got := <-ch
	if got.Class != 1 || got.Time != 5 {
		t.Fatalf("channel delivered %+v", got)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Consume(alertFor(1, 5))
	sink.Consume(alertFor(2, 6.5))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var rec AlertRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SrcIP != "10.0.0.1" || rec.DstIP != "172.16.0.10" || rec.SrcPort != 1234 || rec.DstPort != 443 {
		t.Fatalf("flow identity mangled: %+v", rec)
	}
	if rec.Proto != "tcp" || rec.Class != 1 || rec.ClassName != "attack" || rec.Time != 5 {
		t.Fatalf("verdict mangled: %+v", rec)
	}
	if rec.Duration != 1 {
		t.Fatalf("duration = %v, want 1", rec.Duration)
	}
}

// TestJSONLSinkOrientsInitiator pins that the record's src is the flow
// initiator even when the canonical key orders endpoints the other way.
func TestJSONLSinkOrientsInitiator(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	a := alertFor(1, 5)
	// Initiator is the numerically larger endpoint: key stays (A=10.0.0.1)
	// but the initiating packet came from 172.16.0.10:443.
	a.Flow.InitSrcIP = netflow.IPv4(172, 16, 0, 10)
	a.Flow.InitSrcPort = 443
	sink.Consume(a)
	var rec AlertRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SrcIP != "172.16.0.10" || rec.SrcPort != 443 || rec.DstIP != "10.0.0.1" || rec.DstPort != 1234 {
		t.Fatalf("initiator orientation wrong: %+v", rec)
	}
}

// errWriter fails every write.
type errWriter struct{}

// Write always fails.
func (errWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

func TestJSONLSinkLatchesError(t *testing.T) {
	sink := NewJSONLSink(errWriter{})
	sink.Consume(alertFor(1, 5))
	if sink.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	sink.Consume(alertFor(1, 6)) // must not panic, error stays latched
	if sink.Err() == nil {
		t.Fatal("error unlatched")
	}
}

func TestRateLimitSinkPerClassWindows(t *testing.T) {
	var got []Alert
	sink := NewRateLimitSink(SinkFunc(func(a Alert) { got = append(got, a) }), 2, 10)

	// Class 1: three alerts inside one window — third suppressed.
	sink.Consume(alertFor(1, 0))
	sink.Consume(alertFor(1, 1))
	sink.Consume(alertFor(1, 2))
	// Class 2 has its own budget.
	sink.Consume(alertFor(2, 2))
	// Class 1 again after the window rolls: delivered.
	sink.Consume(alertFor(1, 11))

	if len(got) != 4 {
		t.Fatalf("delivered %d alerts, want 4", len(got))
	}
	if sink.Suppressed() != 1 {
		t.Fatalf("suppressed = %d, want 1", sink.Suppressed())
	}
	want := []struct {
		class int
		at    float64
	}{{1, 0}, {1, 1}, {2, 2}, {1, 11}}
	for i, w := range want {
		if got[i].Class != w.class || got[i].Time != w.at {
			t.Fatalf("delivery %d = class %d t=%v, want class %d t=%v", i, got[i].Class, got[i].Time, w.class, w.at)
		}
	}
}

// TestRateLimitSinkNonMonotonicTimes pins the window semantics under
// out-of-order capture times: sharded interleaving can deliver an
// earlier-capture-time alert after a window opened at a later time. Such
// an alert counts against the already-open window (the anchored start
// makes the elapsed time negative, which never reads as expiry), and a
// late-but-pre-window alert never resurrects a previous window's budget.
func TestRateLimitSinkNonMonotonicTimes(t *testing.T) {
	var got []Alert
	sink := NewRateLimitSink(SinkFunc(func(a Alert) { got = append(got, a) }), 2, 10)

	sink.Consume(alertFor(1, 20)) // opens the window at t=20
	sink.Consume(alertFor(1, 5))  // earlier capture time: same window, second of burst
	sink.Consume(alertFor(1, 7))  // earlier again: window budget exhausted → suppressed
	sink.Consume(alertFor(1, 29)) // still inside [20, 30) → suppressed
	sink.Consume(alertFor(1, 31)) // window rolls at t=31 → delivered

	if sink.Suppressed() != 2 {
		t.Fatalf("suppressed = %d, want 2", sink.Suppressed())
	}
	wantTimes := []float64{20, 5, 31}
	if len(got) != len(wantTimes) {
		t.Fatalf("delivered %d alerts, want %d", len(got), len(wantTimes))
	}
	for i, w := range wantTimes {
		if got[i].Time != w {
			t.Fatalf("delivery %d at t=%v, want t=%v", i, got[i].Time, w)
		}
	}
}

// TestRateLimitSuppressedInTelemetry pins the wiring of suppression
// totals into the engine's collector: a RateLimitSink in Config.Sinks
// reports every drop through the telemetry snapshot, mid-run readable,
// on both the single and the sharded engine.
func TestRateLimitSuppressedInTelemetry(t *testing.T) {
	cfg, live := buildModel(t)
	for _, shards := range []int{1, 4} {
		delivered := 0
		// Burst 1 over one giant window: everything after the first alert
		// per class is suppressed.
		rl := NewRateLimitSink(SinkFunc(func(a Alert) { delivered++ }), 1, 1e9)
		c := cfg
		c.Shards = shards
		c.Sinks = []AlertSink{rl}
		r := streamRunner(t, c, netflow.NewSliceSource(live.Packets))
		st, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		snap := r.Stream.Telemetry().Snapshot()
		if snap.Suppressed == 0 {
			t.Fatalf("shards=%d: no suppressions recorded on an alert-heavy capture (alerts=%d)", shards, st.Alerts)
		}
		if int(snap.Suppressed) != rl.Suppressed() {
			t.Fatalf("shards=%d: telemetry suppressed %d != sink total %d", shards, snap.Suppressed, rl.Suppressed())
		}
		if delivered+rl.Suppressed() != st.Alerts {
			t.Fatalf("shards=%d: delivered %d + suppressed %d != alerts %d", shards, delivered, rl.Suppressed(), st.Alerts)
		}
	}
}

// TestEngineFansAlertsToSinks pins Config.Sinks end to end: OnAlert runs
// first, then every sink in order, for the same alert.
func TestEngineFansAlertsToSinks(t *testing.T) {
	cfg := trivialConfig()
	var order []string
	cfg.OnAlert = func(a Alert) { order = append(order, "cb") }
	cfg.Sinks = []AlertSink{
		SinkFunc(func(a Alert) { order = append(order, "s1") }),
		SinkFunc(func(a Alert) { order = append(order, "s2") }),
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Feed(netflow.Packet{Time: 0, SrcIP: netflow.AddrV4(1), DstIP: netflow.AddrV4(2), SrcPort: 9, DstPort: 53, Proto: netflow.UDP, Length: 80, HeaderLen: 28})
	eng.Close()
	if strings.Join(order, ",") != "cb,s1,s2" {
		t.Fatalf("delivery order = %v", order)
	}
}

// TestShardedSerializesSinks drives the sharded engine with sinks and a
// callback: counts must agree with the merged stats, and because delivery
// is serialized the slice append below is race-safe (this test doubles as
// a -race workout).
func TestShardedSerializesSinks(t *testing.T) {
	cfg, live := buildModel(t)
	cfg.Shards = 4
	var fromCb, fromSink int
	cfg.OnAlert = func(a Alert) { fromCb++ }
	cfg.Sinks = []AlertSink{SinkFunc(func(a Alert) { fromSink++ })}
	st, err := streamRunner(t, cfg, netflow.NewSliceSource(live.Packets)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Alerts == 0 || fromCb != st.Alerts || fromSink != st.Alerts {
		t.Fatalf("alerts=%d callback=%d sink=%d", st.Alerts, fromCb, fromSink)
	}
}
