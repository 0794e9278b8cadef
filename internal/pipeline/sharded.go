package pipeline

import (
	"runtime"
	"sync"
	"time"

	"cyberhd/internal/netflow"
	"cyberhd/internal/telemetry"
)

// Sharded is the multi-core streaming engine: packets are hash-partitioned
// by their bidirectional flow 5-tuple (netflow.Packet.ShardKey) across N
// per-core Engine shards, each with its own assembler, micro-batch buffer
// and pooled scratch, running on its own goroutine behind a bounded
// lossless ingress channel.
//
// Because every packet of a flow hashes to the same shard, flow assembly,
// feature extraction and classification are per-flow identical to a single
// Engine: the merged Stats of a capture are bit-identical to feeding the
// same capture through one Engine (tested by TestShardedMatchesSingleEngine).
//
// Delivery guarantees:
//
//   - Ingress is lossless: Feed blocks when a shard's buffer is full, it
//     never drops. Packets of one flow are processed in feed order.
//   - OnAlert callbacks and sinks are serialized (never concurrent) and
//     arrive in verdict order within a shard — i.e. per flow key.
//     Interleaving across shards is unspecified. Callbacks and sinks must
//     not call Feed, Tick, Flush or Close (they run on shard goroutines);
//     Feedback is allowed.
//   - Close is deterministic: it stops ingress, drains every shard's
//     channel, flushes all in-progress flows and pending micro-batches,
//     and waits for every worker to exit. Feed/Tick/Flush after Close are
//     defined no-ops. Stats is safe from any goroutine at any time (all
//     shards count into one atomic collector); after Close it is exact.
//
// Online learning: Feedback is safe to call concurrently with live
// classification only when the model's Update is — wrap the model in
// core.NewCOWModel so shards classify against immutable snapshots while
// feedback publishes new versions with an atomic swap. With a plain
// *core.Model, call Feedback only while no traffic is being fed.
type Sharded struct {
	cfg    Config
	shards []shardWorker
	once   sync.Once

	// tel is the one collector every shard records into, so Stats is a
	// single read with no per-shard merge.
	tel *telemetry.Collector

	// alertMu serializes OnAlert and sink delivery across shard goroutines.
	alertMu sync.Mutex

	// fb serializes online feedback against the shared model.
	fb feedbacker

	// closeMu makes Close safe against in-flight Feed/Tick/Flush: senders
	// hold the read side, Close takes the write side before closing the
	// shard channels, and post-Close sends become defined no-ops instead
	// of "send on closed channel" panics.
	closeMu sync.RWMutex
	closed  bool
}

// shardWorker is one per-core engine behind its bounded ingress channel.
type shardWorker struct {
	eng  *Engine
	in   chan streamMsg
	done chan struct{}
}

// NewSharded builds and starts a sharded engine: cfg.Shards workers
// (0 selects runtime.GOMAXPROCS), each a full Engine over a copy of cfg
// with the alert callback wrapped for serialized delivery.
func NewSharded(cfg Config) (*Sharded, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	// Resolve quantization once so every shard scores against the same
	// packed classifier (and Feedback reaches its Updater, if any).
	if err := applyQuantize(&cfg); err != nil {
		return nil, err
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	buffer := cfg.ShardBuffer
	if buffer <= 0 {
		buffer = 1024
	}
	tel := resolveTelemetry(&cfg)
	s := &Sharded{cfg: cfg, tel: tel}
	s.fb.tel = tel
	shardCfg := cfg
	if cfg.OnAlert != nil || len(cfg.Sinks) > 0 {
		// One serialized delivery path wraps both the callback and the
		// sinks, so the whole alert contract (never concurrent, verdict
		// order per shard) holds for every consumer.
		user, sinks := cfg.OnAlert, cfg.Sinks
		shardCfg.Sinks = nil
		shardCfg.OnAlert = func(a Alert) {
			s.alertMu.Lock()
			defer s.alertMu.Unlock()
			if user != nil {
				user(a)
			}
			for _, snk := range sinks {
				snk.Consume(a)
			}
		}
	}
	// Build every engine before starting any worker, so a config error
	// never leaves already-started goroutines behind.
	s.shards = make([]shardWorker, n)
	for i := range s.shards {
		eng, err := New(shardCfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = shardWorker{
			eng:  eng,
			in:   make(chan streamMsg, buffer),
			done: make(chan struct{}),
		}
	}
	for i := range s.shards {
		w := &s.shards[i]
		go func() {
			defer close(w.done)
			for m := range w.in {
				w.eng.dispatch(m)
			}
			w.eng.Flush()
		}()
	}
	return s, nil
}

// NumShards returns the worker count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Feed routes one packet to its flow's shard. It blocks when that shard's
// ingress buffer is full (lossless by design: an IDS that silently drops
// packets hides exactly the traffic an attacker would send). Packets must
// arrive in time order per flow. After Close it is a defined no-op.
func (s *Sharded) Feed(p netflow.Packet) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return
	}
	i := int(p.ShardKey() % uint64(len(s.shards)))
	s.shards[i].in <- streamMsg{pkt: p}
}

// TryFeed routes one packet to its flow's shard only when that cannot
// block, reporting whether it was admitted. False when the shard's
// buffer is full right now or after Close.
func (s *Sharded) TryFeed(p netflow.Packet) bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return false
	}
	i := int(p.ShardKey() % uint64(len(s.shards)))
	select {
	case s.shards[i].in <- streamMsg{pkt: p}:
		return true
	default:
		return false
	}
}

// FeedWithin routes one packet to its flow's shard, waiting at most wait
// for buffer space, reporting whether it was admitted. Like Feed, a
// waiting sender holds the close gate's read side, so a concurrent Close
// waits out at most one admission bound. False after Close.
func (s *Sharded) FeedWithin(p netflow.Packet, wait time.Duration) bool {
	if s.TryFeed(p) {
		return true
	}
	if wait <= 0 {
		return false
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return false
	}
	i := int(p.ShardKey() % uint64(len(s.shards)))
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.shards[i].in <- streamMsg{pkt: p}:
		return true
	case <-t.C:
		return false
	}
}

// occupancy reports the fill of the fullest shard buffer and the
// per-shard capacity — the queue-pressure signal the overload gate's
// state machine polls (the hottest shard stalls ingress first, so the
// max is the signal that matters).
func (s *Sharded) occupancy() (int, int) {
	maxFill, capacity := 0, 0
	for i := range s.shards {
		if n := len(s.shards[i].in); n > maxFill {
			maxFill = n
		}
		capacity = cap(s.shards[i].in)
	}
	return maxFill, capacity
}

// Tick broadcasts an idle-eviction tick at capture time now to every
// shard. Each shard processes the tick in order with its packets, so
// eviction and micro-batch draining stay deterministic per shard. After
// Close it is a defined no-op.
func (s *Sharded) Tick(now float64) {
	s.broadcast(streamMsg{tick: now, kind: msgTick})
}

// Flush broadcasts an end-of-capture flush, ordered with the packets
// around it per shard: all flows in progress at this point in the feed
// order complete and classify. It does not wait — Close does. After
// Close it is a defined no-op.
func (s *Sharded) Flush() {
	s.broadcast(streamMsg{kind: msgFlush})
}

// broadcast sends one control message to every shard unless closed.
func (s *Sharded) broadcast(m streamMsg) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return
	}
	for i := range s.shards {
		s.shards[i].in <- m
	}
}

// Close stops ingestion, drains every shard, flushes all in-progress
// flows and pending micro-batches, and waits for every worker to exit.
// Idempotent; every call waits for the full drain.
func (s *Sharded) Close() {
	s.once.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		s.closeMu.Unlock()
		for i := range s.shards {
			close(s.shards[i].in)
		}
	})
	for i := range s.shards {
		<-s.shards[i].done
	}
}

// Stats returns the engine counters. Every shard records into one shared
// telemetry collector, so this is a single atomic read, safe from any
// goroutine at any time; exact after Close.
func (s *Sharded) Stats() Stats { return statsOf(s.tel.Snapshot()) }

// Telemetry returns the collector shared by every shard, for richer
// observation (latency histogram, suppression totals, Prometheus export).
func (s *Sharded) Telemetry() *telemetry.Collector { return s.tel }

// Feedback applies one labeled flow to the shared model when it supports
// online updates, returning true if the model changed. Safe to call from
// any goroutine — including OnAlert callbacks — but concurrent safety
// against live classification is the model's contract: use core.COWModel
// for lock-free snapshot reads with atomically swapped updates.
func (s *Sharded) Feedback(f *netflow.Flow, label int) bool {
	return s.fb.apply(&s.cfg, f, label)
}
