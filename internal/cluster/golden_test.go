package cluster

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
)

// goldenFingerprint renders one alert in the refactor-stable format the
// pre-refactor generator recorded into golden_v1_verdicts.txt:
// dotted-quad endpoints, numeric proto and class, microsecond time.
func goldenFingerprint(a pipeline.Alert) string {
	k := a.Flow.Key
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%.6f",
		k.IPA, k.IPB, k.PortA, k.PortB, uint8(k.Proto), a.Class, a.Time)
}

// TestClusterGoldenCaptureCompat is the end-to-end half of the IPv4
// compatibility contract: the golden v1 capture (written and replayed by
// the pre-refactor uint32 implementation) must produce the exact verdict
// multiset it produced then — through a single engine, a 4-shard engine,
// and a 2-worker loopback cluster.
func TestClusterGoldenCaptureCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1_verdicts.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Fields(strings.TrimSpace(string(raw)))
	if len(golden) == 0 {
		t.Fatal("no golden verdicts")
	}
	pkts, err := netflow.LoadCapture("../netflow/testdata/golden_v1.cap")
	if err != nil {
		t.Fatal(err)
	}
	m, norm, names, _ := clusterModel(t)

	check := func(t *testing.T, alerts []string, st pipeline.Stats) {
		t.Helper()
		sort.Strings(alerts)
		if len(alerts) != len(golden) {
			t.Fatalf("%d alerts, golden %d", len(alerts), len(golden))
		}
		for i := range alerts {
			if alerts[i] != golden[i] {
				t.Fatalf("verdict %d diverged:\n  got    %s\n  golden %s", i, alerts[i], golden[i])
			}
		}
		if st.Packets != len(pkts) || st.Alerts != len(golden) {
			t.Fatalf("stats %d packets / %d alerts, golden %d / %d",
				st.Packets, st.Alerts, len(pkts), len(golden))
		}
	}
	collect := func() (func(pipeline.Alert), *[]string) {
		var mu sync.Mutex
		var alerts []string
		return func(a pipeline.Alert) {
			mu.Lock()
			alerts = append(alerts, goldenFingerprint(a))
			mu.Unlock()
		}, &alerts
	}

	t.Run("single", func(t *testing.T) {
		onAlert, alerts := collect()
		eng, err := pipeline.New(pipeline.Config{
			Model: m, Normalizer: norm, ClassNames: names, BatchSize: 8, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&pipeline.Runner{Stream: eng, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(t, *alerts, st)
	})

	t.Run("sharded-4", func(t *testing.T) {
		onAlert, alerts := collect()
		sh, err := pipeline.NewSharded(pipeline.Config{
			Model: m, Normalizer: norm, ClassNames: names, BatchSize: 8, Shards: 4, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&pipeline.Runner{Stream: sh, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(t, *alerts, st)
	})

	t.Run("cluster-2", func(t *testing.T) {
		addrs := startWorkers(t, 2, WorkerConfig{})
		onAlert, alerts := collect()
		client, err := Dial(ClientConfig{
			Workers: addrs, Model: core.NewCOWModel(m),
			Normalizer: norm, ClassNames: names, BatchSize: 8, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&pipeline.Runner{Stream: client, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Err(); err != nil {
			t.Fatalf("cluster transport error: %v", err)
		}
		check(t, *alerts, st)
	})
}

// TestClusterV6VLANBitIdentical drives IPv6 and VLAN-tagged flows over
// the cluster transport — the v2 packet and alert wire frames — and
// pins that a 2-worker cluster verdicts them bit-identically to one
// local engine.
func TestClusterV6VLANBitIdentical(t *testing.T) {
	m, norm, names, pkts := clusterModel(t)
	// Rewrite half the hosts into a v6 site (the v4 address embedded in
	// 2001:db8::/32) and tag a third of the packets — a mixed workload
	// where flows keep their pairing across the address rewrite.
	toV6 := func(a netflow.Addr) netflow.Addr {
		if !a.Is4() || a.V4()%2 == 0 {
			return a
		}
		var b [16]byte
		b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
		copy(b[12:], a[12:16])
		return netflow.AddrFrom16(b)
	}
	mixed := make([]netflow.Packet, len(pkts))
	for i, p := range pkts {
		p.SrcIP, p.DstIP = toV6(p.SrcIP), toV6(p.DstIP)
		if i%3 == 0 {
			p.VLAN = 42
		}
		mixed[i] = p
	}
	hasV6 := false
	for i := range mixed {
		if !mixed[i].EncodableV1() {
			hasV6 = true
			break
		}
	}
	if !hasV6 {
		t.Fatal("rewrite produced no v2-frame packets; the differential is vacuous")
	}

	run := func(t *testing.T, mk func(onAlert func(pipeline.Alert)) (pipeline.Stream, func() error)) ([]string, pipeline.Stats) {
		t.Helper()
		var mu sync.Mutex
		var alerts []string
		stream, errf := mk(func(a pipeline.Alert) {
			mu.Lock()
			alerts = append(alerts, goldenFingerprint(a))
			mu.Unlock()
		})
		st, err := (&pipeline.Runner{Stream: stream, Source: netflow.NewSliceSource(mixed), TickInterval: 1}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := errf(); err != nil {
			t.Fatalf("transport error: %v", err)
		}
		sort.Strings(alerts)
		return alerts, st
	}

	single, stA := run(t, func(onAlert func(pipeline.Alert)) (pipeline.Stream, func() error) {
		eng, err := pipeline.New(pipeline.Config{
			Model: m, Normalizer: norm, ClassNames: names, BatchSize: 8, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng, func() error { return nil }
	})
	if len(single) == 0 {
		t.Fatal("reference run produced no alerts; the differential is vacuous")
	}
	clustered, stB := run(t, func(onAlert func(pipeline.Alert)) (pipeline.Stream, func() error) {
		addrs := startWorkers(t, 2, WorkerConfig{})
		client, err := Dial(ClientConfig{
			Workers: addrs, Model: core.NewCOWModel(m),
			Normalizer: norm, ClassNames: names, BatchSize: 8, OnAlert: onAlert,
		})
		if err != nil {
			t.Fatal(err)
		}
		return client, client.Err
	})

	if len(single) != len(clustered) {
		t.Fatalf("alert count: single %d, cluster %d", len(single), len(clustered))
	}
	for i := range single {
		if single[i] != clustered[i] {
			t.Fatalf("alert %d diverged:\n  single:  %s\n  cluster: %s", i, single[i], clustered[i])
		}
	}
	if stA.Packets != stB.Packets || stA.Flows != stB.Flows || stA.Alerts != stB.Alerts {
		t.Fatalf("stats diverged: single %d/%d/%d, cluster %d/%d/%d",
			stA.Packets, stA.Flows, stA.Alerts, stB.Packets, stB.Flows, stB.Alerts)
	}
	v6Alerts := 0
	for _, fp := range single {
		if strings.Contains(fp, ":") {
			v6Alerts++
		}
	}
	if v6Alerts == 0 {
		t.Fatal("no v6 flow alerted; the v2 alert frame went unexercised")
	}
}
