package cyberhd

import (
	"context"
	"runtime"

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
//	stats, err := det.Serve(ctx, cyberhd.NewSliceSource(capture),
//	    cyberhd.WithBatchSize(64),
//	    cyberhd.WithSinks(cyberhd.NewJSONLSink(os.Stdout)))
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
	// into — share one (WithTelemetry) to observe a run live from any
	// goroutine, or read it through Stream.Telemetry / Runner.Telemetry.
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
	// cyberhd_packets_dropped_total and on WithDropCallback deliveries.
	DropReason = telemetry.DropReason
	// Gate is the admission-controlled ingress wrapper around any Stream;
	// Serve installs one automatically under a bounded OverloadPolicy.
	Gate = pipeline.Gate
	// Classifier is the minimal scoring contract engines serve through
	// (Predict/PredictBatchInto/NumClasses) — satisfied by Model,
	// COWModel, QuantizedModel and QuantizedLive.
	Classifier = pipeline.Classifier
	// ShadowTap is the shadow-serving slot of the model control plane: a
	// swappable candidate classifier that engines score behind the
	// primary, counting verdict divergence per class into telemetry.
	// Attach with WithShadow; swap candidates with Set/Clear at any time.
	ShadowTap = pipeline.Shadow
	// ControlPlane serves the model-management HTTP routes (GET/POST
	// /model, /model/promote, /model/demote) over one serving COWModel —
	// validated hot reload, shadow attach and promotion, each one atomic
	// swap. Build with NewControlPlane, mount via ServeMetricsWith.
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
	// NewTelemetry builds a collector for the given class names — pass it
	// to WithTelemetry and a ServeMetrics endpoint to watch a run live.
	NewTelemetry = telemetry.New
	// ServeMetrics starts the admin endpoint (/metrics, /stats, /healthz)
	// for a collector on addr; close the returned server when done.
	ServeMetrics = telemetry.ListenAndServe
	// NewGate wraps a hand-built Stream in the bounded-overload admission
	// gate — Serve and NewServeRunner do this automatically when the
	// config's OverloadPolicy is bounded.
	NewGate = pipeline.NewGate
	// ServeMetricsWith is ServeMetrics plus extra routes on the same
	// admin mux — the way to mount a ControlPlane's Handler at "/model"
	// and "/model/" alongside /metrics, /stats and /healthz.
	ServeMetricsWith = telemetry.ListenAndServeWith
	// NewShadowTap returns an empty shadow tap; attach it to an engine
	// with WithShadow and to a ControlPlane via ControlPlaneConfig.
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

// EngineOption composes an EngineConfig — the builder form of engine
// construction. Options apply in order over the detector's base config
// (model, normalizer, class names), so later options win; the EngineConfig
// struct remains the compatible escape hatch for exotic setups.
type EngineOption func(*EngineConfig)

// WithBatchSize buffers completed flows and classifies them in n-flow
// micro-batches through the blocked GEMM kernels (0 or 1 classifies every
// flow immediately). The bounded verdict delay this trades for throughput
// is cleared by Tick — which Serve issues automatically from capture
// timestamps — and by Flush.
func WithBatchSize(n int) EngineOption {
	return func(cfg *EngineConfig) { cfg.BatchSize = n }
}

// WithQuantized lowers classification to packed w-bit integer inference
// (the paper's Table I bitwidths as a live serving mode). Zero serves
// float32.
func WithQuantized(w Width) EngineOption {
	return func(cfg *EngineConfig) { cfg.Quantize = w }
}

// WithModel serves through m instead of the detector's own model —
// typically a COWModel (or QuantizedLive) wrapping it, so hot reload and
// feedback publish atomically against concurrent reads, or a model
// restored by LoadModelSnapshot.
func WithModel(m Classifier) EngineOption {
	return func(cfg *EngineConfig) { cfg.Model = m }
}

// WithShadow attaches a shadow tap: every classified flow is also scored
// by the tap's candidate (when one is set) and verdict divergence is
// counted per class into telemetry — the observe step of the
// retrain→shadow→promote loop. Share the same tap with a ControlPlane to
// drive it over HTTP.
func WithShadow(tap *ShadowTap) EngineOption {
	return func(cfg *EngineConfig) { cfg.Shadow = tap }
}

// WithShards serves through the flow-sharded multi-core engine with n
// shards when n > 1; n == 0 selects one shard per core
// (runtime.GOMAXPROCS, resolved here so the stored config says what will
// run). Without this option — or when the count resolves to 1 — Serve
// uses the single synchronous engine, whose alert order is deterministic
// run to run; sharded stats are bit-identical but alert interleaving
// across shards is scheduling-dependent, so sharding is an explicit
// choice.
func WithShards(n int) EngineOption {
	return func(cfg *EngineConfig) {
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		cfg.Shards = n
	}
}

// WithShardBuffer bounds each shard's lossless ingress buffer (<= 0
// selects 1024).
func WithShardBuffer(n int) EngineOption {
	return func(cfg *EngineConfig) { cfg.ShardBuffer = n }
}

// WithBenignClass sets the class index that does not alert (default 0).
func WithBenignClass(class int) EngineOption {
	return func(cfg *EngineConfig) { cfg.BenignClass = class }
}

// WithFlowTimeouts overrides flow assembly: idle seconds end a silent
// flow, gap seconds split its active periods (defaults: the CIC
// conventions, 120 s and 1 s).
func WithFlowTimeouts(idle, gap float64) EngineOption {
	return func(cfg *EngineConfig) { cfg.IdleTimeout, cfg.ActivityGap = idle, gap }
}

// WithOnAlert installs a synchronous alert callback (runs before sinks).
func WithOnAlert(fn func(Alert)) EngineOption {
	return func(cfg *EngineConfig) { cfg.OnAlert = fn }
}

// WithSinks appends alert sinks; every alert reaches every sink, in
// order, serialized per the engine's alert contract.
func WithSinks(sinks ...AlertSink) EngineOption {
	return func(cfg *EngineConfig) { cfg.Sinks = append(cfg.Sinks, sinks...) }
}

// WithTelemetry makes the engine record into t instead of a private
// collector — the way to share one collector between a running engine
// and an observer such as a ServeMetrics endpoint. t's class count must
// match the detector's. A sharded engine shares t across all shards.
func WithTelemetry(t *Telemetry) EngineOption {
	return func(cfg *EngineConfig) { cfg.Telemetry = t }
}

// WithProgress installs a live-progress callback for Serve and Runner:
// fn receives a telemetry snapshot as packet timestamps cross each
// every-capture-seconds boundary (0 selects 10 s), plus one final
// settled snapshot after the drain. fn runs on the serving goroutine and
// must not call back into the engine.
func WithProgress(every float64, fn func(TelemetrySnapshot)) EngineOption {
	return func(cfg *EngineConfig) { cfg.Progress, cfg.ProgressInterval = fn, every }
}

// WithOverloadPolicy sets the ingress admission policy for Serve and
// NewServeRunner. A bounded policy wraps the engine in a Gate: admission
// waits at most MaxWait, refused packets are dropped and counted
// (cyberhd_packets_dropped_total{reason=...}), shedding is flow-aware and
// tenants are rate-isolated — see OverloadPolicy for every knob. The
// default (and the zero policy) is lossless-blocking, bit-identical to
// serving without the option. Later WithTenantKey/WithDropCallback
// options adjust the same policy in place.
func WithOverloadPolicy(p OverloadPolicy) EngineOption {
	return func(cfg *EngineConfig) { cfg.Overload = p }
}

// WithTenantKey overrides how the overload gate's token buckets group
// packets into tenants (default: the /24 subnet of the canonical flow
// key's lower endpoint, so both directions of a flow bill the same
// tenant). Only meaningful together with a bounded overload policy that
// sets a tenant rate.
func WithTenantKey(fn func(*Packet) uint64) EngineOption {
	return func(cfg *EngineConfig) { cfg.Overload.TenantKey = fn }
}

// WithDropCallback observes every packet the overload gate refuses,
// with its reason — the hook for mirroring shed traffic to a pcap ring
// or a sampler. fn runs on the feeding goroutine under the gate lock:
// keep it fast and never call back into the stream or gate. Only
// meaningful together with a bounded overload policy.
func WithDropCallback(fn func(Packet, DropReason)) EngineOption {
	return func(cfg *EngineConfig) { cfg.Overload.OnDrop = fn }
}

// WithTickInterval sets the auto-tick period in capture seconds used by
// Serve and Runner (0 selects 1 s, negative disables): the runner ticks
// the engine as packet timestamps cross interval boundaries, so a
// completed flow's verdict never waits in a micro-batch longer than one
// interval of capture time.
func WithTickInterval(seconds float64) EngineOption {
	return func(cfg *EngineConfig) { cfg.TickInterval = seconds }
}

// EngineConfig assembles the detector's serving configuration: the
// trained model, its normalizer and class names, with opts applied in
// order. Pass the result to NewEngine/NewShardedEngine/NewServeRunner, or
// adjust fields directly for anything without an option.
func (d *Detector) EngineConfig(opts ...EngineOption) EngineConfig {
	cfg := EngineConfig{
		Model:      d.Model,
		Normalizer: d.Normalizer,
		ClassNames: d.ClassNames,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// NewServeRunner builds the engine cfg describes (cfg.Shards > 1 the
// flow-sharded engine, anything else the deterministic single-core
// engine — see WithShards) and a Runner that will pump src through it:
// the assembled-but-not-started form of Serve, for callers that need the
// Runner (custom contexts, access to the Stream for Feedback) rather
// than one call.
func NewServeRunner(cfg EngineConfig, src PacketSource) (*Runner, error) {
	return pipeline.NewRunner(cfg, src)
}

// Serve is the one-call serving path: build the engine described by the
// detector and opts, pump src through it until the source ends or ctx is
// cancelled (auto-ticking from capture timestamps), drain
// deterministically, and return the final stats. On cancellation the
// stats cover everything fed before the cancel and err is ctx.Err().
func (d *Detector) Serve(ctx context.Context, src PacketSource, opts ...EngineOption) (EngineStats, error) {
	r, err := NewServeRunner(d.EngineConfig(opts...), src)
	if err != nil {
		return EngineStats{}, err
	}
	return r.Run(ctx)
}

// Serve runs det.Serve — the package-level spelling of the one-call
// serving path.
func Serve(ctx context.Context, det *Detector, src PacketSource, opts ...EngineOption) (EngineStats, error) {
	return det.Serve(ctx, src, opts...)
}

// ServeWithMetrics is Serve plus a live admin endpoint: it binds addr,
// serves /metrics (Prometheus text format), /stats (JSON) and /healthz
// for the duration of the run, and closes the endpoint when the run
// ends. The engine and the endpoint share one collector — pass your own
// with WithTelemetry to keep scraping after the run, or to aggregate
// several runs on one endpoint.
func (d *Detector) ServeWithMetrics(ctx context.Context, addr string, src PacketSource, opts ...EngineOption) (EngineStats, error) {
	cfg := d.EngineConfig(opts...)
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New(cfg.ClassNames)
	}
	srv, err := telemetry.ListenAndServe(addr, cfg.Telemetry)
	if err != nil {
		return EngineStats{}, err
	}
	defer srv.Close()
	r, err := NewServeRunner(cfg, src)
	if err != nil {
		return EngineStats{}, err
	}
	return r.Run(ctx)
}
