package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/rng"
	"cyberhd/internal/traffic"
)

// trained is the model every clusterModel call starts from: trained once
// per test binary and kept as snapshot bytes, so each call decodes a
// private copy (tests that replicate or feed back mutate only their own).
var trained struct {
	once       sync.Once
	snap       []byte
	norm       datasets.Normalizer
	classNames []string
	err        error
}

// clusterModel returns the pipeline test model (same data, encoder and
// options as the pipeline package's differential pins) — a fresh copy
// per call of one model trained once per test binary — and generates the
// replay capture.
func clusterModel(t testing.TB) (*core.Model, *datasets.Normalizer, []string, []netflow.Packet) {
	t.Helper()
	trained.once.Do(func() {
		train := datasets.CICIDS2017(1500, 21)
		trainSet, _, norm := train.NormalizedSplit(0.9, 3)
		m, err := core.Train(
			encoder.NewRBF(trainSet.NumFeatures(), 512, 0, 5),
			trainSet.X, trainSet.Y,
			core.Options{Classes: trainSet.NumClasses(), Epochs: 8, RegenCycles: 3, RegenRate: 0.2, LearningRate: 0.1, Seed: 7},
		)
		if err != nil {
			trained.err = err
			return
		}
		var buf bytes.Buffer
		trained.err = core.SaveSnapshot(&buf, core.NewCOWModel(m))
		trained.snap, trained.norm, trained.classNames = buf.Bytes(), *norm, train.ClassNames
	})
	if trained.err != nil {
		t.Fatal(trained.err)
	}
	m, _, err := core.DecodeSnapshot(bytes.NewReader(trained.snap))
	if err != nil {
		t.Fatal(err)
	}
	norm := &datasets.Normalizer{
		Mean:   append([]float32(nil), trained.norm.Mean...),
		InvStd: append([]float32(nil), trained.norm.InvStd...),
	}
	live := traffic.Generate(traffic.Config{Sessions: 400, Seed: 99})
	return m, norm, append([]string(nil), trained.classNames...), live.Packets
}

// startWorkers brings up n loopback workers and returns their addresses
// plus a shutdown func.
func startWorkers(t *testing.T, n int, cfg WorkerConfig) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = w.Addr()
		go func() { _ = w.Serve() }()
		t.Cleanup(func() { _ = w.Close() })
	}
	return addrs
}

// fingerprint is the replay identity of one alert: flow key, class,
// verdict time — the same triple the pipeline package's differential
// tests compare.
func fingerprint(a pipeline.Alert) string {
	return fmt.Sprintf("%v|%d|%.6f", a.Flow.Key, a.Class, a.Time)
}

// TestClusterBitIdenticalToSingleProcess is the cluster's central pin:
// the same capture replayed through (a) one local engine and (b) a
// 1-ingest + 2-worker loopback cluster — both driven by the standard
// Runner with the same tick interval — must produce bit-identical
// verdicts: equal alert fingerprint multisets, equal stats, and exact
// packet/flow conservation across the workers.
func TestClusterBitIdenticalToSingleProcess(t *testing.T) {
	m, norm, names, pkts := clusterModel(t)

	// (a) Single-process reference run.
	var muA sync.Mutex
	var alertsA []string
	eng, err := pipeline.New(pipeline.Config{
		Model: m, Normalizer: norm, ClassNames: names, BatchSize: 8,
		OnAlert: func(a pipeline.Alert) {
			muA.Lock()
			alertsA = append(alertsA, fingerprint(a))
			muA.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runA := &pipeline.Runner{Stream: eng, Source: netflow.NewSliceSource(pkts), TickInterval: 1}
	stA, err := runA.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// (b) Cluster run over loopback TCP: two workers, flow-hash fan-out.
	addrs := startWorkers(t, 2, WorkerConfig{})
	var muB sync.Mutex
	var alertsB []string
	client, err := Dial(ClientConfig{
		Workers:    addrs,
		Model:      core.NewCOWModel(m),
		Normalizer: norm, ClassNames: names, BatchSize: 8,
		OnAlert: func(a pipeline.Alert) {
			muB.Lock()
			alertsB = append(alertsB, fingerprint(a))
			muB.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := (&pipeline.Runner{Stream: client, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Err(); err != nil {
		t.Fatalf("cluster transport error: %v", err)
	}

	// Bit-identical verdict streams: the sorted fingerprint multisets and
	// the counter set must match exactly.
	sort.Strings(alertsA)
	sort.Strings(alertsB)
	if len(alertsA) == 0 {
		t.Fatal("reference run produced no alerts; the differential is vacuous")
	}
	if len(alertsA) != len(alertsB) {
		t.Fatalf("alert count: single %d, cluster %d", len(alertsA), len(alertsB))
	}
	for i := range alertsA {
		if alertsA[i] != alertsB[i] {
			t.Fatalf("alert %d diverged:\n  single:  %s\n  cluster: %s", i, alertsA[i], alertsB[i])
		}
	}
	if stA.Packets != stB.Packets || stA.Flows != stB.Flows || stA.Alerts != stB.Alerts {
		t.Fatalf("stats diverged: single %d/%d/%d, cluster %d/%d/%d",
			stA.Packets, stA.Flows, stA.Alerts, stB.Packets, stB.Flows, stB.Alerts)
	}
	if len(stA.ByClass) != len(stB.ByClass) {
		t.Fatalf("ByClass length: %d != %d", len(stA.ByClass), len(stB.ByClass))
	}
	for c := range stA.ByClass {
		if stA.ByClass[c] != stB.ByClass[c] {
			t.Fatalf("ByClass[%d]: single %d, cluster %d", c, stA.ByClass[c], stB.ByClass[c])
		}
	}

	// Conservation: every packet the ingest node routed is accounted for
	// by exactly one worker, and the workers together saw the capture.
	sent := client.SentPerWorker()
	snaps := client.WorkerSnapshots()
	var sentTotal, seenTotal, flowTotal int64
	for i := range sent {
		if snaps[i].Packets != sent[i] {
			t.Fatalf("worker %d: sent %d packets, settled telemetry reports %d", i, sent[i], snaps[i].Packets)
		}
		if sent[i] == 0 {
			t.Fatalf("worker %d received no packets; the fan-out is vacuous", i)
		}
		sentTotal += sent[i]
		seenTotal += snaps[i].Packets
		flowTotal += snaps[i].Flows
	}
	if int(sentTotal) != len(pkts) || int(seenTotal) != len(pkts) {
		t.Fatalf("packet conservation: %d in capture, %d routed, %d settled", len(pkts), sentTotal, seenTotal)
	}
	if int(flowTotal) != stA.Flows {
		t.Fatalf("flow conservation: single %d flows, workers settled %d", stA.Flows, flowTotal)
	}
}

// tinyModel trains a small synthetic model (the control package's test
// idiom) whose geometry diverges from the serving model.
func tinyModel(t *testing.T, classes, inDim, dim int, seed uint64) *core.Model {
	t.Helper()
	r := rng.New(seed)
	x := hdc.NewMatrix(40*classes, inDim)
	y := make([]int, x.Rows)
	for i := 0; i < x.Rows; i++ {
		y[i] = i % classes
		row := x.Row(i)
		for j := range row {
			row[j] = 2*float32(y[i]) + 0.3*r.NormFloat32()
		}
	}
	m, err := core.Train(encoder.NewRBF(inDim, dim, 0, seed+1), x, y,
		core.Options{Classes: classes, Epochs: 2, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClusterSnapshotReplicationGates pins the replication contract: a
// pushed snapshot clears each worker's control-plane gates or leaves that
// worker's serving version untouched — garbage fails decode, a
// wrong-geometry model fails validation, and a well-formed snapshot
// swaps every worker to one new version atomically.
func TestClusterSnapshotReplicationGates(t *testing.T) {
	m, norm, names, _ := clusterModel(t)
	addrs := startWorkers(t, 2, WorkerConfig{})
	cow := core.NewCOWModel(m)
	client, err := Dial(ClientConfig{
		Workers: addrs, Model: cow,
		Normalizer: norm, ClassNames: names,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	before := client.WorkerVersions()

	// Garbage: rejected at decode on every worker, versions untouched.
	results, err := client.PushSnapshotBytes([]byte("definitely not a model snapshot"))
	if err == nil {
		t.Fatal("garbage push reported success")
	}
	for _, r := range results {
		if r.OK || r.Err == "" {
			t.Fatalf("worker %s accepted garbage: %+v", r.Worker, r)
		}
	}
	for i, v := range client.WorkerVersions() {
		if v != before[i] {
			t.Fatalf("worker %d version moved %d -> %d on a rejected push", i, before[i], v)
		}
	}

	// Wrong geometry: decodes fine, rejected at validation, versions
	// untouched.
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, core.NewCOWModel(tinyModel(t, len(names), 8, 64, 17))); err != nil {
		t.Fatal(err)
	}
	results, err = client.PushSnapshotBytes(buf.Bytes())
	if err == nil {
		t.Fatal("geometry-mismatch push reported success")
	}
	for _, r := range results {
		if r.OK {
			t.Fatalf("worker %s accepted a wrong-geometry model: %+v", r.Worker, r)
		}
	}
	for i, v := range client.WorkerVersions() {
		if v != before[i] {
			t.Fatalf("worker %d version moved %d -> %d on a rejected push", i, before[i], v)
		}
	}

	// A well-formed snapshot of the serving model: accepted everywhere,
	// every worker advances exactly one version.
	results, err = client.PushSnapshot()
	if err != nil {
		t.Fatalf("valid push failed: %v", err)
	}
	for i, r := range results {
		if !r.OK {
			t.Fatalf("worker %s rejected a valid snapshot: %s", r.Worker, r.Err)
		}
		if r.Version != before[i]+1 {
			t.Fatalf("worker %d version %d after push, want %d", i, r.Version, before[i]+1)
		}
	}
	for i, v := range client.WorkerVersions() {
		if v != before[i]+1 {
			t.Fatalf("worker %d version %d, want %d", i, v, before[i]+1)
		}
	}
}

// TestDialRejectsBadConfig pins client-side configuration validation.
func TestDialRejectsBadConfig(t *testing.T) {
	m, norm, names, _ := clusterModel(t)
	cow := core.NewCOWModel(m)
	if _, err := Dial(ClientConfig{Model: cow, Normalizer: norm, ClassNames: names}); err == nil {
		t.Error("Dial accepted zero workers")
	}
	if _, err := Dial(ClientConfig{Workers: []string{"x"}, Normalizer: norm, ClassNames: names}); err == nil {
		t.Error("Dial accepted nil model")
	}
	if _, err := Dial(ClientConfig{Workers: []string{"x"}, Model: cow, ClassNames: names}); err == nil {
		t.Error("Dial accepted nil normalizer")
	}
	if _, err := Dial(ClientConfig{Workers: []string{"x"}, Model: cow, Normalizer: norm}); err == nil {
		t.Error("Dial accepted empty class names")
	}
	if _, err := Dial(ClientConfig{Workers: []string{"x"}, Model: cow, Normalizer: norm, ClassNames: names, BenignClass: 99}); err == nil {
		t.Error("Dial accepted out-of-range benign class")
	}
	if _, err := Dial(ClientConfig{Workers: []string{"127.0.0.1:1"}, Model: cow, Normalizer: norm, ClassNames: names}); err == nil {
		t.Error("Dial connected to a dead worker")
	}
}

// TestClusterShardedWorkers spins the same differential with each worker
// running an internal 2-shard engine: worker-internal sharding must not
// change verdicts either.
func TestClusterShardedWorkers(t *testing.T) {
	m, norm, names, pkts := clusterModel(t)
	pkts = pkts[:len(pkts)/2] // half the capture keeps the double differential cheap

	var muA sync.Mutex
	var alertsA []string
	eng, err := pipeline.New(pipeline.Config{
		Model: m, Normalizer: norm, ClassNames: names,
		OnAlert: func(a pipeline.Alert) {
			muA.Lock()
			alertsA = append(alertsA, fingerprint(a))
			muA.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stA, err := (&pipeline.Runner{Stream: eng, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, 2, WorkerConfig{})
	var muB sync.Mutex
	var alertsB []string
	client, err := Dial(ClientConfig{
		Workers: addrs, Model: core.NewCOWModel(m),
		Normalizer: norm, ClassNames: names,
		WorkerShards: 2, WorkerShardBuffer: 64,
		OnAlert: func(a pipeline.Alert) {
			muB.Lock()
			alertsB = append(alertsB, fingerprint(a))
			muB.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := (&pipeline.Runner{Stream: client, Source: netflow.NewSliceSource(pkts), TickInterval: 1}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Err(); err != nil {
		t.Fatalf("cluster transport error: %v", err)
	}
	sort.Strings(alertsA)
	sort.Strings(alertsB)
	if len(alertsA) != len(alertsB) {
		t.Fatalf("alert count: single %d, sharded cluster %d", len(alertsA), len(alertsB))
	}
	for i := range alertsA {
		if alertsA[i] != alertsB[i] {
			t.Fatalf("alert %d diverged:\n  single:  %s\n  cluster: %s", i, alertsA[i], alertsB[i])
		}
	}
	if stA.Packets != stB.Packets || stA.Flows != stB.Flows || stA.Alerts != stB.Alerts {
		t.Fatalf("stats diverged: single %d/%d/%d, cluster %d/%d/%d",
			stA.Packets, stA.Flows, stA.Alerts, stB.Packets, stB.Flows, stB.Alerts)
	}
}
