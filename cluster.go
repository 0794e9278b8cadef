package cyberhd

import "cyberhd/internal/cluster"

// Cluster serving: the layer that scales the runtime past one process. An
// ingest node partitions a packet stream by flow hash across N detector
// workers over TCP and merges their alert and telemetry streams back;
// model snapshots replicate to every worker through the control-plane
// gates. Cluster verdicts over a capture are bit-identical to a
// single-process engine over the same capture.
type (
	// ClusterWorker is a detector node: it accepts ingest connections and
	// serves one detection session per connection, driven entirely over
	// the wire. Build with NewClusterWorker, run with Serve.
	ClusterWorker = cluster.Worker
	// ClusterWorkerConfig tunes a ClusterWorker; the zero value serves.
	ClusterWorkerConfig = cluster.WorkerConfig
	// ClusterClient is an ingest node's handle on its worker fleet. It
	// implements the engine Stream contract, so the standard Runner
	// drives a cluster exactly like a local engine (wrap it in NewGate
	// for bounded admission). Build with DialCluster; serve its
	// MergedSnapshot through ServeMetrics for the cluster-wide rollup.
	ClusterClient = cluster.Client
	// ClusterConfig assembles a ClusterClient: worker addresses, the
	// serving COWModel, the normalizer and class names, plus the engine
	// settings forwarded to every worker.
	ClusterConfig = cluster.ClientConfig
	// ClusterPushResult is one worker's outcome of a snapshot
	// replication: accepted (with its new serving version) or rejected
	// with the gate's reason, its previous version still serving.
	ClusterPushResult = cluster.PushResult
)

var (
	// NewClusterWorker binds a listen address and returns a detector
	// worker ready to Serve.
	NewClusterWorker = cluster.NewWorker
	// DialCluster connects to every worker in a ClusterConfig, replicates
	// the initial model snapshot, and returns a serving-ready
	// ClusterClient.
	DialCluster = cluster.Dial
)
