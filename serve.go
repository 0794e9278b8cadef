package cyberhd

import (
	"context"
	"fmt"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/control"
	"cyberhd/internal/core"
	"cyberhd/internal/hdc"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
	"cyberhd/internal/traffic"
)

// Serving runtime surface: the Stream/Source/Sink abstractions and the
// Runner that ties them together (see the "Serving runtime" section of
// ARCHITECTURE.md). The typical one-call path:
//
//	cfg := det.EngineConfig()
//	cfg.BatchSize = 64
//	cfg.Sinks = []cyberhd.AlertSink{cyberhd.NewJSONLSink(os.Stdout)}
//	stats, err := cyberhd.Serve(ctx, cfg, cyberhd.NewSliceSource(capture))
type (
	// Stream is the uniform serving contract (Feed/Tick/Flush/Close/
	// Stats/Feedback) implemented by Engine, ShardedEngine, Gate and
	// ClusterClient.
	Stream = pipeline.Stream
	// PacketSource yields a time-ordered packet stream (see NewSliceSource,
	// OpenCapture, ReplayTraffic).
	PacketSource = netflow.PacketSource
	// SliceSource replays an in-memory packet slice.
	SliceSource = netflow.SliceSource
	// CaptureFile streams an on-disk binary capture in O(1) memory.
	CaptureFile = netflow.CaptureFile
	// PCAPFile streams an on-disk PCAP or pcapng capture in O(1) memory
	// (see OpenPCAP).
	PCAPFile = netflow.PCAPFile
	// PCAPSource streams packets out of classic PCAP or pcapng bytes —
	// the dependency-free interchange-format front door (Ethernet/VLAN/
	// IPv4/IPv6/TCP/UDP/ICMP decode).
	PCAPSource = netflow.PCAPSource
	// ReplaySource replays generated traffic, optionally paced against the
	// wall clock (live-replay mode).
	ReplaySource = traffic.ReplaySource
	// AlertSink consumes non-benign verdicts (see SinkFunc, ChanSink,
	// JSONLSink, RateLimitSink).
	AlertSink = pipeline.AlertSink
	// SinkFunc adapts a plain function to an AlertSink.
	SinkFunc = pipeline.SinkFunc
	// ChanSink delivers alerts into a channel (blocking, lossless).
	ChanSink = pipeline.ChanSink
	// JSONLSink writes one AlertRecord JSON object per alert.
	JSONLSink = pipeline.JSONLSink
	// AlertRecord is the JSON shape JSONLSink writes.
	AlertRecord = pipeline.AlertRecord
	// RateLimitSink caps deliveries per class per capture-time window.
	RateLimitSink = pipeline.RateLimitSink
	// Runner pumps a PacketSource into a Stream under a context.
	Runner = pipeline.Runner
	// Telemetry is the lock-free counter collector every engine records
	// into — share one (EngineConfig.Telemetry) to observe a run live
	// from any goroutine, or read it through Stream.Telemetry.
	Telemetry = telemetry.Collector
	// TelemetrySnapshot is one point-in-time read of a Telemetry
	// collector: counters plus the verdict-latency histogram.
	TelemetrySnapshot = telemetry.Snapshot
	// MetricsServer is a running admin endpoint serving /metrics
	// (Prometheus text format), /stats (JSON) and /healthz.
	MetricsServer = telemetry.Server
	// KernelDispatch identifies which kernel implementations the running
	// build+CPU selected, one path name per domain (see Kernels).
	KernelDispatch = telemetry.Kernels
	// OverloadPolicy configures the ingress admission gate: admission
	// wait bound, shedding thresholds, per-tenant token-bucket rates.
	// The zero value is the lossless default (no gate installed).
	OverloadPolicy = pipeline.OverloadPolicy
	// OverloadMode selects lossless-blocking (default) or bounded-latency
	// admission — see OverloadLossless and OverloadBounded.
	OverloadMode = pipeline.OverloadMode
	// OverloadState is the gate's load-shedding state (normal, pressured,
	// shedding), readable live via Gate.State and telemetry.
	OverloadState = pipeline.OverloadState
	// DropReason labels why an ingress packet was refused (backpressure,
	// new-flow shedding, tenant rate) — the label on
	// cyberhd_packets_dropped_total and on OverloadPolicy.OnDrop
	// deliveries.
	DropReason = telemetry.DropReason
	// Gate is the admission-controlled ingress wrapper around any Stream;
	// NewStream installs one automatically under a bounded OverloadPolicy.
	Gate = pipeline.Gate
	// Classifier is the minimal scoring contract engines serve through
	// (Predict/PredictBatchInto/NumClasses) — satisfied by Model,
	// COWModel, QuantizedModel and QuantizedLive.
	Classifier = pipeline.Classifier
	// ShadowTap is the shadow-serving slot of the model control plane: a
	// swappable candidate classifier that engines score behind the
	// primary, counting verdict divergence per class into telemetry.
	// Attach through EngineConfig.Shadow; swap candidates with Set/Clear
	// at any time.
	ShadowTap = pipeline.Shadow
	// ControlPlane serves the model-management HTTP routes (GET/POST
	// /model, /model/promote, /model/demote) over one serving COWModel —
	// validated hot reload, shadow attach and promotion, each one atomic
	// swap. Build with NewControlPlane, mount as an extra route of
	// ServeMetrics.
	ControlPlane = control.Plane
	// ControlPlaneConfig assembles a ControlPlane: the serving COWModel,
	// its quantization width, the engine's ShadowTap and the sanity gate.
	ControlPlaneConfig = control.Config
	// SanityBatch is the acceptance gate an uploaded model must pass
	// before a ControlPlane publishes it (see control.SanityBatch).
	SanityBatch = control.SanityBatch
	// ModelStatus is the ControlPlane's GET /model response: serving
	// version, geometry, width and shadow state.
	ModelStatus = control.Status
	// SnapshotInfo describes a decoded model snapshot: persistence
	// format, COW model version, recorded serving width and geometry.
	SnapshotInfo = core.SnapshotInfo
)

// Overload modes, states and drop reasons, re-exported so policy
// construction never needs the internal packages.
const (
	// OverloadLossless is the default admission mode: Feed blocks on full
	// buffers and never drops — replay determinism untouched.
	OverloadLossless = pipeline.OverloadLossless
	// OverloadBounded bounds ingress latency instead of loss: counted
	// drops, flow-aware shedding, per-tenant fairness.
	OverloadBounded = pipeline.OverloadBounded
	// DropBackpressure counts packets refused because ingress buffers
	// stayed full past the admission wait bound.
	DropBackpressure = telemetry.DropBackpressure
	// DropNewFlowShed counts packets refused in the shedding state
	// because they would have started a new flow.
	DropNewFlowShed = telemetry.DropNewFlowShed
	// DropTenantRate counts packets refused by their tenant's token
	// bucket.
	DropTenantRate = telemetry.DropTenantRate
)

// Kernels reports which kernel implementations this build+CPU selected at
// startup: the float32 path (hdc GEMM/cosine — "avx2", "avx" or
// "generic") and the quantized path (bitpack packed dots and quantizers —
// "avx2", "avx" or "popcnt-swar"). Engines stamp the same report into
// their telemetry collector, so live runs expose it at /stats ("kernels")
// and /metrics (cyberhd_kernel_info); this function answers the question
// without building an engine — e.g. in startup banners and benchmark
// records.
func Kernels() KernelDispatch {
	return KernelDispatch{Float: hdc.KernelPath(), Packed: bitpack.KernelPath()}
}

// Source and sink constructors, re-exported from the implementation
// packages so the full serving runtime is reachable from the facade.
var (
	// NewSliceSource wraps an in-memory packet slice as a PacketSource.
	NewSliceSource = netflow.NewSliceSource
	// OpenCapture opens a binary capture for O(1)-memory streaming replay.
	OpenCapture = netflow.OpenCapture
	// OpenPCAP opens a PCAP or pcapng capture for O(1)-memory streaming
	// replay through the decode stack — real-world captures as a
	// PacketSource, no external dependencies.
	OpenPCAP = netflow.OpenPCAP
	// NewPCAPSource streams a PCAP or pcapng byte stream (magic-sniffed)
	// as a PacketSource.
	NewPCAPSource = netflow.NewPCAPSource
	// ReplayTraffic replays a generated TrafficStream, paced at the given
	// multiple of capture time when speed > 0 (live-replay mode).
	ReplayTraffic = traffic.Replay
	// NewJSONLSink writes alert records to a writer, one JSON line each.
	NewJSONLSink = pipeline.NewJSONLSink
	// NewRateLimitSink caps delivery at burst alerts per class per window
	// capture-seconds before forwarding to an inner sink.
	NewRateLimitSink = pipeline.NewRateLimitSink
	// NewStream builds the stream cfg describes — the one
	// engine-selection rule. cfg.Shards > 1 builds the flow-sharded
	// multi-core engine (stats bit-identical, alert interleaving across
	// shards scheduling-dependent); any other count builds the
	// synchronous single-core engine, whose alert order is deterministic
	// run to run — resolve "one shard per core" with runtime.GOMAXPROCS(0)
	// before the call. A bounded cfg.Overload wraps either in the
	// admission Gate. For live analyst feedback set cfg.Model to a
	// COWModel (NewCOWModel); with cfg.Quantize, every feedback
	// publication also re-packs the quantized class memory.
	NewStream = pipeline.NewStream
	// NewTelemetry builds a collector for the given class names — set it
	// as EngineConfig.Telemetry and pass its Snapshot method to
	// ServeMetrics to watch a run live.
	NewTelemetry = telemetry.New
	// ServeMetrics binds addr and serves the admin endpoint (/metrics,
	// /stats, /healthz) from a snapshot function: a Telemetry's Snapshot
	// method, or a ClusterClient's MergedSnapshot for the cluster-wide
	// rollup. Extra routes share the mux — the way to mount a
	// ControlPlane's Handler at "/model" and "/model/". Close the
	// returned server when done.
	ServeMetrics = telemetry.ListenAndServe
	// NewGate wraps a Stream NewStream did not build (a ClusterClient, a
	// hand-built engine) in the bounded-overload admission gate; NewStream
	// does this itself when cfg.Overload is bounded.
	NewGate = pipeline.NewGate
	// NewShadowTap returns an empty shadow tap; attach it to an engine
	// through EngineConfig.Shadow and to a ControlPlane via
	// ControlPlaneConfig.
	NewShadowTap = pipeline.NewShadow
	// NewControlPlane validates a ControlPlaneConfig and builds the
	// model control plane.
	NewControlPlane = control.New
	// SaveModelSnapshot writes a COWModel publication as a versioned v2
	// snapshot: encoder state, class matrix, scorer norms, COW version
	// and the derived quantized width — everything LoadModelSnapshot
	// needs to restore bit-identical serving.
	SaveModelSnapshot = core.SaveSnapshot
	// LoadModelSnapshot restores a COWModel from a snapshot in either
	// persistence format (v1 core.Save files load too, rebuilding
	// derived state) and reports what it loaded.
	LoadModelSnapshot = core.LoadSnapshot
	// SaveModelSnapshotFile and LoadModelSnapshotFile are the file-path
	// spellings of SaveModelSnapshot/LoadModelSnapshot.
	SaveModelSnapshotFile = core.SaveSnapshotFile
	// LoadModelSnapshotFile restores a COWModel from a snapshot file.
	LoadModelSnapshotFile = core.LoadSnapshotFile
	// EncodeSanityBatch writes a SanityBatch in the wire format a
	// ControlPlane accepts as the "sanity" part of a multipart upload.
	EncodeSanityBatch = control.EncodeSanityBatch
)

// EngineConfig returns the detector's base serving configuration: the
// trained model, its normalizer and class names. Set any other field
// (BatchSize, Quantize, Shards, Sinks, Telemetry, Shadow, Overload, …) on
// the returned struct, then hand it to NewStream or Serve.
func (d *Detector) EngineConfig() EngineConfig {
	return EngineConfig{Model: d.Model, Normalizer: d.Normalizer, ClassNames: d.ClassNames}
}

// Serve is the one-call serving path: build the stream cfg describes
// (NewStream), pump src through it until the source ends or ctx is
// cancelled (auto-ticking every capture second), drain
// deterministically, and return the final stats. On cancellation the
// stats cover everything fed before the cancel and err is ctx.Err(). For
// another tick interval or a progress callback, run a Runner over
// NewStream(cfg) instead.
func Serve(ctx context.Context, cfg EngineConfig, src PacketSource) (EngineStats, error) {
	if src == nil {
		return EngineStats{}, fmt.Errorf("cyberhd: nil packet source")
	}
	s, err := NewStream(cfg)
	if err != nil {
		return EngineStats{}, err
	}
	return (&Runner{Stream: s, Source: src}).Run(ctx)
}
