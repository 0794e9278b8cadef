package pipeline

import (
	"time"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// Stream is the uniform serving contract of the detection engines: one
// packet-in/alert-out surface implemented identically by Engine (single
// core, synchronous), Sharded (flow-hash partitioned, one background
// worker per shard), Gate (bounded admission in front of either) and
// cluster.Client (flow-hash fan-out to remote workers). Sources
// (netflow.PacketSource) feed a Stream and sinks (AlertSink) consume
// from it, usually through a Runner rather than by hand; NewStream
// builds the local one a Config describes.
//
// Lifecycle and ordering guarantees, uniform across implementations:
//
//   - Feed ingests one packet. Packets must arrive in capture-time order
//     (per flow for Sharded). Ingestion is lossless: a concurrent
//     implementation blocks when its buffers fill, it never drops.
//   - TryFeed and FeedWithin are the admission-controlled variants: they
//     never block indefinitely and report whether the packet was
//     admitted. A false return means the packet was NOT ingested — the
//     caller owns the drop (the overload Gate counts it into telemetry).
//     On the synchronous Engine admission always succeeds (there is no
//     ingress buffer to fill); on Sharded, TryFeed fails when the shard's
//     buffer is full right now and FeedWithin when it stays full for the
//     whole wait.
//   - Post-Close, TryFeed and FeedWithin return false — unlike Feed,
//     whose post-Close no-op is silent, the admission variants make the
//     refusal observable so a gate never miscounts a packet fed to a
//     retired stream as admitted.
//   - Tick and Flush are ordered with packets: their effects apply after
//     every previously fed packet and before any later one (per shard for
//     Sharded). On Engine they act synchronously; on Sharded they enqueue
//     and return.
//   - Close stops ingestion, completes all in-progress flows, drains every
//     pending micro-batch and buffered packet, and waits until all of it
//     has classified — Close ≡ drain, deterministically, on every
//     implementation. Close is idempotent, and Feed/Tick/Flush after Close
//     are defined no-ops (they drop silently — never a panic).
//   - Stats is safe from any goroutine at any time: engines count
//     through lock-free telemetry collectors, so a mid-run read never
//     races (pinned by TestSnapshotDuringLiveFeedRaceFree). A mid-run
//     read is eventually consistent across counters (see the telemetry
//     package's consistency contract); after Close it is exact.
//   - Feedback may be called from any goroutine, including alert
//     callbacks; concurrent safety against live classification is the
//     model's contract (use core.COWModel).
type Stream interface {
	// Feed ingests one packet in capture-time order. No-op after Close.
	Feed(p netflow.Packet)
	// TryFeed ingests one packet only when that cannot block, reporting
	// whether it was admitted. False after Close.
	TryFeed(p netflow.Packet) bool
	// FeedWithin ingests one packet, waiting at most wait for ingress
	// buffer space, reporting whether it was admitted. A non-positive
	// wait is exactly TryFeed. False after Close.
	FeedWithin(p netflow.Packet, wait time.Duration) bool
	// Tick evicts flows idle at capture time now and drains partial
	// micro-batches, bounding verdict latency across quiet stretches.
	// No-op after Close.
	Tick(now float64)
	// Flush completes all in-progress flows (end of capture) and
	// classifies everything pending. No-op after Close.
	Flush()
	// Close stops ingestion and drains deterministically; idempotent.
	Close()
	// Stats snapshots the engine counters — safe from any goroutine at
	// any time, exact after Close.
	Stats() Stats
	// Telemetry returns the engine's collector — the richer live surface
	// (latency histogram, suppression totals, Prometheus export).
	Telemetry() *telemetry.Collector
	// Feedback applies one labeled flow when the model learns online,
	// reporting whether the model changed.
	Feedback(f *netflow.Flow, label int) bool
}

// Both engines implement the Stream contract.
var (
	_ Stream = (*Engine)(nil)
	_ Stream = (*Sharded)(nil)
)

// NewStream builds the local engine cfg describes — the one
// engine-selection rule shared by every local serving path and the
// cluster worker.
// Sharding is an explicit choice, not a default: cfg.Shards > 1 builds
// the flow-sharded multi-core engine with that many shards (stats stay
// bit-identical, but alert interleaving across shards is
// scheduling-dependent); any other count builds the synchronous
// single-core Engine, whose alert order is deterministic run to run.
// cfg.Overload.Mode == OverloadBounded wraps the engine in the admission
// Gate; the lossless default installs nothing, keeping the no-gate path
// bit-identical to every release before overload control.
func NewStream(cfg Config) (Stream, error) {
	var s Stream
	var err error
	if cfg.Shards > 1 {
		s, err = NewSharded(cfg)
	} else {
		s, err = New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Overload.Mode == OverloadBounded {
		s = NewGate(s, cfg.Overload)
	}
	return s, nil
}

// streamMsg is one ingress item for the channel-fed Sharded engine: a
// packet, a tick at capture time, or a flush request. Control messages
// keep their order relative to packets within a channel, so eviction and
// batch draining stay deterministic per worker.
type streamMsg struct {
	pkt  netflow.Packet
	tick float64
	kind msgKind
}

// msgKind discriminates streamMsg.
type msgKind uint8

const (
	msgPacket msgKind = iota
	msgTick
	msgFlush
)

// dispatch applies one ingress message to an engine.
func (e *Engine) dispatch(m streamMsg) {
	switch m.kind {
	case msgPacket:
		e.Feed(m.pkt)
	case msgTick:
		e.Tick(m.tick)
	case msgFlush:
		e.Flush()
	}
}
