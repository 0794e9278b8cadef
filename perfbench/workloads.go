package main

import (
	"fmt"

	"cyberhd/internal/traffic"
)

// topology is how a workload's packets reach the detector.
type topology int

const (
	// topoEngine feeds one synchronous pipeline.Engine.
	topoEngine topology = iota
	// topoSharded feeds pipeline.Sharded with one shard per CPU (traced
	// runs of a workload with shard set).
	topoSharded
	// topoGate feeds an Engine behind pipeline.NewGate in bounded mode.
	topoGate
	// topoCluster feeds cluster.Dial over loopback TCP to one in-process
	// cluster.Worker per CPU (traced runs of a workload with wire set).
	topoCluster
)

// batchSize is the micro-batch size of every workload's engines.
const batchSize = 64

// workload is one named traffic mix and topology. README.md records why
// each was chosen.
type workload struct {
	name     string
	why      string
	mix      map[traffic.Label]float64 // nil selects the default CIC mix
	sessions int
	v6       float64 // share of flows rewritten to IPv6
	pcap     bool    // read through NewPCAPSource (else NewCaptureScanner)
	topo     topology
	// tenantRate is the gate's per-tenant token rate in packets per
	// capture second (topoGate only).
	tenantRate float64
	// shard and wire add Sharded and cluster passes over the same image
	// to the traced run, so the shard handoff and the cluster wire are
	// measured without end-to-end workloads of their own.
	shard, wire bool
	// openRate is the open-loop offered rate in packets per wall second:
	// a few percent of the closed-loop packets_per_s measured when the
	// benchmark was defined (2-CPU container, GOMAXPROCS=2, avx2), so the
	// micro-batch waits the schedule lays out, not the shared host's
	// stalls, set the p99; README.md gives the numbers.
	openRate float64
}

// workloads lists every workload in the order BENCHMARK.json names them.
var workloads = []workload{
	{
		name: "cic-pcap", why: "default CIC mix from a 128-byte-snap PCAP into one Engine: detect -pcap, the single-threaded baseline",
		sessions: 4000, pcap: true, topo: topoEngine, shard: true, wire: true, openRate: 60_000,
	},
	{
		name: "flood-gated", why: "DoS/DDoS/PortScan with 40% IPv6 flows into an Engine behind a bounded gate: encode, score, sink and gate dominate",
		mix: map[traffic.Label]float64{
			traffic.DoS: 0.2, traffic.DDoS: 0.3, traffic.PortScan: 0.5,
		},
		sessions: 3000, v6: 0.4, topo: topoGate, tenantRate: 100, openRate: 30_000,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("perfbench: unknown workload %q (want one of %v)", name, names)
}
