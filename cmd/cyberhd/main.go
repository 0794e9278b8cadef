// Command cyberhd is the training and evaluation CLI.
//
// Subcommands:
//
//	cyberhd gen -dataset nsl-kdd -n 20000 -out nsl.csv     # synthesize a dataset
//	cyberhd train -in nsl.csv                              # train + full report
//	cyberhd train -dataset unsw-nb15 -n 10000 -cycles 0    # synthetic, static HDC
//	cyberhd quantize -dataset nsl-kdd -n 8000              # accuracy across bitwidths
//	cyberhd faults -dataset nsl-kdd -rate 0.1 -bits 1      # robustness spot check
//	cyberhd detect -train 3000 -sessions 1000              # end-to-end live detection
//	cyberhd detect -shards 0 -batch 64                     # flow-sharded, one engine per core
//	cyberhd detect -width 4 -batch 64                      # packed 4-bit integer inference
//	cyberhd detect -capture traffic.cap -jsonl alerts.jsonl # O(1)-memory replay, JSONL alerts
//	cyberhd detect -metrics :9090                          # live /metrics, /stats, /healthz
//	cyberhd serve -listen 127.0.0.1:9301                   # cluster detector worker
//	cyberhd detect -workers 127.0.0.1:9301,127.0.0.1:9302  # fan a capture out across workers
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cyberhd"
	"cyberhd/internal/bitpack"
	"cyberhd/internal/datasets"
	"cyberhd/internal/faults"
	"cyberhd/internal/metrics"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/rng"
	"cyberhd/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "quantize":
		err = cmdQuantize(os.Args[2:])
	case "faults":
		err = cmdFaults(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyberhd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cyberhd <gen|train|quantize|faults|detect|serve> [flags]")
	os.Exit(2)
}

// loadOrGen builds a dataset from -in CSV or synthesizes -dataset.
func loadOrGen(in, name string, n int, seed uint64) (*cyberhd.Dataset, error) {
	if in != "" {
		return cyberhd.LoadCSV(in)
	}
	d, ok := cyberhd.DatasetByName(name, n, seed)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q (want one of %v)", name, datasets.PaperDatasets())
	}
	return d, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("dataset", "nsl-kdd", "dataset to synthesize")
	n := fs.Int("n", 10000, "samples (sessions for CIC sets)")
	seed := fs.Uint64("seed", 42, "random seed")
	out := fs.String("out", "", "output CSV path (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out required")
	}
	d, ok := cyberhd.DatasetByName(*name, *n, *seed)
	if !ok {
		return fmt.Errorf("unknown dataset %q", *name)
	}
	if err := cyberhd.SaveCSV(*out, d); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples × %d features, %d classes\n",
		*out, d.Len(), d.NumFeatures(), d.NumClasses())
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("in", "", "input CSV (from gen); empty = synthesize")
	name := fs.String("dataset", "nsl-kdd", "dataset when -in is empty")
	n := fs.Int("n", 8000, "samples when synthesizing")
	seed := fs.Uint64("seed", 42, "random seed")
	dim := fs.Int("dim", 512, "physical hyperspace dimensionality")
	epochs := fs.Int("epochs", 8, "adaptive epochs per cycle")
	cycles := fs.Int("cycles", 7, "regeneration cycles (0 = static BaselineHD)")
	rate := fs.Float64("rate", 0.2, "regeneration rate R")
	lr := fs.Float64("lr", 0.1, "learning rate η")
	fs.Parse(args)

	d, err := loadOrGen(*in, *name, *n, *seed)
	if err != nil {
		return err
	}
	cfg := cyberhd.Config{
		Dim: *dim, Epochs: *epochs, RegenCycles: *cycles, RegenRate: *rate,
		LearningRate: *lr, TrainFraction: 0.75, Seed: *seed,
	}
	det, err := cyberhd.TrainDetector(d, cfg)
	if err != nil {
		return err
	}
	fmt.Println(det)
	for _, h := range det.Model.History {
		fmt.Printf("  cycle %d: dropped=%3d D*=%4d trainAcc=%.4f\n",
			h.Cycle, h.Dropped, h.EffectiveDim, h.TrainAcc)
	}

	// Full quality report on a fresh evaluation split.
	_, test, norm := d.NormalizedSplit(0.75, *seed)
	_ = norm
	conf := metrics.NewConfusion(d.ClassNames)
	preds := det.Model.PredictBatch(test.X)
	conf.AddAll(test.Y, preds)
	fmt.Printf("\naccuracy: %.4f   macro-F1: %.4f   detection: %.4f   false-alarm: %.4f\n",
		conf.Accuracy(), conf.MacroF1(), conf.DetectionRate(0), conf.FalseAlarmRate(0))
	fmt.Println("\nconfusion matrix:")
	fmt.Print(conf)
	fmt.Println("\nper-class report:")
	for _, r := range conf.Report() {
		fmt.Printf("  %-14s support=%5d P=%.3f R=%.3f F1=%.3f\n",
			r.Class, r.Support, r.Precision, r.Recall, r.F1)
	}
	return nil
}

func cmdQuantize(args []string) error {
	fs := flag.NewFlagSet("quantize", flag.ExitOnError)
	in := fs.String("in", "", "input CSV; empty = synthesize")
	name := fs.String("dataset", "nsl-kdd", "dataset when -in is empty")
	n := fs.Int("n", 8000, "samples when synthesizing")
	seed := fs.Uint64("seed", 42, "random seed")
	fs.Parse(args)

	d, err := loadOrGen(*in, *name, *n, *seed)
	if err != nil {
		return err
	}
	det, err := cyberhd.TrainDetector(d, cyberhd.DefaultConfig())
	if err != nil {
		return err
	}
	_, test, _ := d.NormalizedSplit(0.75, *seed)
	fmt.Printf("float32 accuracy: %.4f   class memory: %d bits\n",
		det.Model.Evaluate(test.X, test.Y),
		det.Model.NumClasses()*det.Model.Dim()*32)
	for _, w := range bitpack.Widths {
		q, err := quantize.FromCore(det.Model, w)
		if err != nil {
			return err
		}
		fmt.Printf("%2d-bit accuracy:  %.4f   class memory: %d bits\n",
			w, q.Evaluate(test.X, test.Y), q.MemoryBits())
	}
	return nil
}

func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	in := fs.String("in", "", "input CSV; empty = synthesize")
	name := fs.String("dataset", "nsl-kdd", "dataset when -in is empty")
	n := fs.Int("n", 8000, "samples when synthesizing")
	seed := fs.Uint64("seed", 42, "random seed")
	rate := fs.Float64("rate", 0.1, "fraction of elements hit by a bit flip")
	bits := fs.Int("bits", 1, "HDC element bitwidth")
	trials := fs.Int("trials", 5, "injection trials")
	fs.Parse(args)

	d, err := loadOrGen(*in, *name, *n, *seed)
	if err != nil {
		return err
	}
	det, err := cyberhd.TrainDetector(d, cyberhd.DefaultConfig())
	if err != nil {
		return err
	}
	_, test, _ := d.NormalizedSplit(0.75, *seed)
	q, err := quantize.FromCore(det.Model, bitpack.Width(*bits))
	if err != nil {
		return err
	}
	clean := q.Evaluate(test.X, test.Y)
	r := rng.New(*seed + 1)
	var lossSum float64
	for i := 0; i < *trials; i++ {
		hurt := q.Clone()
		nFlips := faults.InjectQuantized(hurt.Class, *rate, r)
		acc := hurt.Evaluate(test.X, test.Y)
		lossSum += clean - acc
		fmt.Printf("trial %d: %5d elements corrupted, accuracy %.4f (clean %.4f)\n",
			i+1, nFlips, acc, clean)
	}
	fmt.Printf("\nmean accuracy loss at %.0f%% error rate, %d-bit: %.2f pp\n",
		100**rate, *bits, 100*lossSum/float64(*trials))
	return nil
}

// cmdDetect trains a detector and serves a capture through it: on a local
// engine, or with -workers fanned out by flow hash across a cluster of
// `cyberhd serve` workers. The two modes differ only in which Stream the
// run drives, so their output is the same line for line — CI diffs the
// summary line and the sorted JSONL alerts of the two to pin the
// cluster's bit-identity contract.
func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	trainSessions := fs.Int("train", 3000, "training capture size (sessions)")
	liveSessions := fs.Int("sessions", 1000, "live capture size (sessions)")
	seed := fs.Uint64("seed", 42, "random seed")
	capture := fs.String("capture", "", "replay a binary capture instead of generating live traffic (streamed in O(1) memory)")
	pcap := fs.String("pcap", "", "replay a PCAP or pcapng capture through the decode stack (Ethernet/VLAN/IPv4/IPv6; streamed in O(1) memory)")
	workers := fs.String("workers", "", "comma-separated cluster worker addresses (cyberhd serve): fan the capture out across them instead of serving it locally")
	shards := fs.Int("shards", 1, "engine shards (1 = single in-process engine; 0 = one per core); with -workers, the shards inside each worker (>= 1)")
	batch := fs.Int("batch", 0, "micro-batch size per engine (0 = classify per flow)")
	width := fs.Int("width", 0, "quantized inference bitwidth: 1, 2, 4, 8, 16 or 32 (0 = float32)")
	tick := fs.Float64("tick", 1, "auto-tick interval in capture seconds (bounds batched-verdict delay; < 0 disables)")
	overload := fs.String("overload", "lossless", "ingress admission policy: lossless (blocking, never drops) or bounded (bounded-latency admission with counted shedding)")
	tenantRate := fs.Float64("tenant-rate", 0, "bounded mode: cap each tenant (v4 /24 or v6 /48 of the canonical flow key) at this many packets per capture second (0 disables)")
	jsonl := fs.String("jsonl", "", "append alerts as JSON lines to this file ('-' = stdout)")
	metricsAddr := fs.String("metrics", "", "serve live /metrics (Prometheus), /stats (JSON) and /healthz on this address for the whole run, plus the /model control plane locally; with -workers the counters are the cluster-wide rollup")
	metricsLinger := fs.Float64("metrics-linger", 0, "keep the -metrics endpoint up this many seconds after the run (for scrapers that poll final counters)")
	saveModel := fs.String("save-model", "", "write the trained model as a versioned snapshot to this file (load with the /model control plane or cyberhd.LoadModelSnapshotFile)")
	progress := fs.Float64("progress", 0, "print a progress line to stderr every N capture seconds (0 disables; local engine only)")
	verbose := fs.Bool("v", false, "print every alert")
	fs.Parse(args)
	var fleet []string
	for _, a := range strings.Split(*workers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			fleet = append(fleet, a)
		}
	}
	cluster := len(fleet) > 0
	switch {
	case *workers != "" && !cluster:
		return fmt.Errorf("detect: -workers lists no addresses")
	case cluster && *shards <= 0:
		// The ingest node cannot see the workers' cores.
		return fmt.Errorf("detect: -shards %d with -workers: give each worker's shard count explicitly (>= 1)", *shards)
	case cluster && *progress > 0:
		return fmt.Errorf("detect: -progress needs a local engine (poll the -metrics rollup with -workers)")
	case *width != 0 && !bitpack.Width(*width).Valid():
		return fmt.Errorf("detect: -width %d not one of %v", *width, bitpack.Widths)
	case *capture != "" && *pcap != "":
		return fmt.Errorf("detect: -capture and -pcap are mutually exclusive")
	}
	var pol cyberhd.OverloadPolicy
	switch *overload {
	case "lossless":
		if *tenantRate > 0 {
			return fmt.Errorf("detect: -tenant-rate requires -overload bounded (lossless never drops)")
		}
	case "bounded":
		pol.Mode = cyberhd.OverloadBounded
		pol.TenantRate = *tenantRate
	default:
		return fmt.Errorf("detect: -overload %q not one of lossless, bounded", *overload)
	}

	// Bind the admin endpoint before the (slow) training step: liveness is
	// answerable immediately, counters read zero until serving starts.
	// Locally the counters are the engine's collector and the /model
	// control plane mounts lazily — it answers 503 until the detector
	// exists, then hot-swaps in (one atomic pointer store). A cluster run
	// serves the merged worker telemetry instead, read through an atomic
	// pointer that flips to the live client once dialed; it mounts no
	// /model, because the ingest node's control plane does not replicate
	// to the workers. CIC-derived detectors label verdicts with the
	// traffic labels.
	classNames := traffic.LabelNames()
	var tel *cyberhd.Telemetry
	var metricsSrv *cyberhd.MetricsServer
	var lazyPlane *lazyHandler
	var clientPtr atomic.Pointer[cyberhd.ClusterClient]
	if *metricsAddr != "" {
		snapshot := func() cyberhd.TelemetrySnapshot {
			if c := clientPtr.Load(); c != nil {
				return c.MergedSnapshot()
			}
			return cyberhd.TelemetrySnapshot{Classes: classNames}
		}
		var extra map[string]http.Handler
		banner := "cluster rollup endpoint: http://%s/metrics (also /stats, /healthz)\n"
		if !cluster {
			tel = cyberhd.NewTelemetry(classNames)
			lazyPlane = &lazyHandler{}
			snapshot = tel.Snapshot
			extra = map[string]http.Handler{"/model": lazyPlane, "/model/": lazyPlane}
			banner = "metrics endpoint: http://%s/metrics (also /stats, /healthz, /model)\n"
		}
		srv, err := cyberhd.ServeMetrics(*metricsAddr, snapshot, extra)
		if err != nil {
			return err
		}
		metricsSrv = srv
		defer metricsSrv.Close()
		fmt.Printf(banner, srv.Addr())
	}

	det, err := cyberhd.TrainDetector(cyberhd.CICIDS2017(*trainSessions, *seed), cyberhd.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Println("detector:", det)
	if !cluster {
		k := cyberhd.Kernels()
		fmt.Printf("kernels: float=%s packed=%s\n", k.Float, k.Packed)
	}

	// The control plane serves through a COW wrapper over the trained
	// model so uploads publish atomically against concurrent reads; the
	// snapshot file captures the same publication, and a cluster
	// replicates it to every worker.
	var cow *cyberhd.COWModel
	var tap *cyberhd.ShadowTap
	if *saveModel != "" || lazyPlane != nil || cluster {
		cow = cyberhd.NewCOWModel(det.Model)
	}
	if *saveModel != "" {
		if err := cyberhd.SaveModelSnapshotFile(*saveModel, cow); err != nil {
			return err
		}
		fmt.Printf("model snapshot: %s (version %d)\n", *saveModel, cow.Version())
	}
	if lazyPlane != nil {
		tap = cyberhd.NewShadowTap()
		plane, err := cyberhd.NewControlPlane(cyberhd.ControlPlaneConfig{
			Model: cow, Width: cyberhd.Width(*width), Shadow: tap,
		})
		if err != nil {
			return err
		}
		lazyPlane.set(plane.Handler())
	}

	// Ingest: an O(1)-memory capture or PCAP replay, or generated live
	// traffic.
	var src cyberhd.PacketSource
	var live *cyberhd.TrafficStream
	var pcapSrc *cyberhd.PCAPFile
	if *pcap != "" {
		pf, err := cyberhd.OpenPCAP(*pcap)
		if err != nil {
			return err
		}
		defer pf.Close()
		src = pf
		pcapSrc = pf
	} else if *capture != "" {
		cf, err := cyberhd.OpenCapture(*capture)
		if err != nil {
			return err
		}
		defer cf.Close()
		src = cf
	} else {
		live = cyberhd.GenerateTraffic(cyberhd.TrafficConfig{Sessions: *liveSessions, Seed: *seed + 1})
		src = cyberhd.NewSliceSource(live.Packets)
	}

	// Egress: optional verbose printing and JSONL export ride along as
	// alert sinks on the one serving path (merged across workers in a
	// cluster).
	var sinks []cyberhd.AlertSink
	if *verbose {
		sinks = append(sinks, cyberhd.SinkFunc(func(a cyberhd.Alert) {
			fmt.Printf("ALERT t=%9.2fs %-12s %4d pkts %9.0f bytes\n",
				a.Time, a.ClassName, a.Flow.TotalPackets(), a.Flow.TotalBytes())
		}))
	}
	var jsonlSink *cyberhd.JSONLSink
	var jsonlFile *os.File
	if *jsonl != "" {
		w := io.Writer(os.Stdout)
		if *jsonl != "-" {
			f, err := os.Create(*jsonl)
			if err != nil {
				return err
			}
			jsonlFile = f
			defer f.Close() // backstop for error returns; success path closes and checks below
			w = f
		}
		jsonlSink = cyberhd.NewJSONLSink(w)
		sinks = append(sinks, jsonlSink)
	}
	if *width != 0 {
		fmt.Printf("quantized inference: %d-bit packed class memory\n", *width)
	}

	// Build the one stream the run drives: a cluster client behind the
	// admission gate — shed at ingress, before the transport spends
	// anything on the packet, exactly where the gate sits in front of a
	// local engine — or the local engine NewStream builds.
	var stream cyberhd.Stream
	var client *cyberhd.ClusterClient
	if cluster {
		client, err = cyberhd.DialCluster(cyberhd.ClusterConfig{
			Workers:      fleet,
			Model:        cow,
			Normalizer:   det.Normalizer,
			ClassNames:   det.ClassNames,
			BatchSize:    *batch,
			Width:        cyberhd.Width(*width),
			WorkerShards: *shards,
			Sinks:        sinks,
		})
		if err != nil {
			return err
		}
		clientPtr.Store(client)
		fmt.Printf("cluster: %d workers, flow-hash fan-out\n", len(fleet))
		stream = client
		if pol.Mode == cyberhd.OverloadBounded {
			stream = cyberhd.NewGate(client, pol)
		}
	} else {
		cfg := det.EngineConfig()
		cfg.BatchSize = *batch
		cfg.Quantize = cyberhd.Width(*width)
		cfg.Shards = *shards
		if cfg.Shards == 0 {
			cfg.Shards = runtime.GOMAXPROCS(0)
		}
		cfg.Overload = pol
		cfg.Sinks = sinks
		cfg.Telemetry = tel
		cfg.Shadow = tap
		if cow != nil {
			cfg.Model = cow
		}
		if stream, err = cyberhd.NewStream(cfg); err != nil {
			return err
		}
		if cfg.Shards > 1 {
			fmt.Printf("sharded engine: %d flow-hash shards\n", cfg.Shards)
		}
	}
	runner := &cyberhd.Runner{Stream: stream, Source: src, TickInterval: *tick}
	if *progress > 0 {
		runner.ProgressInterval = *progress
		runner.Progress = func(s cyberhd.TelemetrySnapshot) {
			fmt.Fprintf(os.Stderr, "progress: %d packets, %d flows, %d alerts (%d pending)\n",
				s.Packets, s.Flows, s.Alerts, s.Pending())
		}
	}
	if pol.Mode == cyberhd.OverloadBounded {
		if pol.TenantRate > 0 {
			fmt.Printf("overload policy: bounded (max-wait %v, tenant-rate %g pkt/s per v4 /24 or v6 /48)\n",
				pipeline.DefaultMaxWait, pol.TenantRate)
		} else {
			fmt.Printf("overload policy: bounded (max-wait %v)\n", pipeline.DefaultMaxWait)
		}
	} else {
		fmt.Println("overload policy: lossless (blocking ingress, never drops)")
	}

	st, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	// A lost worker connection or a failed alert export must fail the
	// run: a cluster that dropped packets, or a truncated JSONL file,
	// exiting 0 looks like a successful run to anything scripted on top.
	if client != nil {
		if err := client.Err(); err != nil {
			return fmt.Errorf("cluster transport: %w", err)
		}
	}
	if jsonlSink != nil {
		if err := jsonlSink.Err(); err != nil {
			return fmt.Errorf("jsonl sink: %w", err)
		}
		if jsonlFile != nil {
			if err := jsonlFile.Close(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("\nprocessed %d packets -> %d flows, %d alerts\n", st.Packets, st.Flows, st.Alerts)
	if pcapSrc != nil && pcapSrc.Skipped() > 0 {
		fmt.Printf("pcap: skipped %d frames outside the decode stack\n", pcapSrc.Skipped())
	}
	if pol.Mode == cyberhd.OverloadBounded {
		// Always printed in bounded mode (even when zero): the accounting
		// line CI greps, offered = processed + dropped.
		fmt.Printf("dropped %d packets (backpressure=%d new_flow_shed=%d tenant_rate=%d)\n",
			st.DroppedTotal(), st.Dropped[cyberhd.DropBackpressure],
			st.Dropped[cyberhd.DropNewFlowShed], st.Dropped[cyberhd.DropTenantRate])
	}
	if client != nil {
		sent := client.SentPerWorker()
		versions := client.WorkerVersions()
		for i, addr := range client.WorkerAddrs() {
			fmt.Printf("worker %s: %d packets, serving model version %d\n", addr, sent[i], versions[i])
		}
	}
	if tel != nil {
		s := tel.Snapshot()
		if s.Latency.Count > 0 {
			fmt.Printf("verdict latency (capture time): mean %.3fs over %d verdicts",
				s.Latency.Sum/float64(s.Latency.Count), s.Latency.Count)
			if s.Suppressed > 0 {
				fmt.Printf(", %d alerts rate-limited", s.Suppressed)
			}
			fmt.Println()
		}
		if cow != nil {
			fmt.Printf("serving model version: %d\n", cow.Version())
		}
		if s.ShadowFlows > 0 {
			fmt.Printf("shadow serving: %d flows scored, %d diverged from primary\n",
				s.ShadowFlows, s.ShadowDivergedTotal())
		}
	}

	// Score verdicts against ground truth where available (generated
	// traffic only — captures carry no labels), using the same inference
	// the engine served: the packed quantized model when -width is set.
	if live != nil {
		scoreModel := pipeline.Classifier(det.Model)
		if *width != 0 {
			q, err := quantize.FromCore(det.Model, bitpack.Width(*width))
			if err != nil {
				return err
			}
			scoreModel = q
		}
		conf := metrics.NewConfusion(det.ClassNames)
		scored := 0
		a := netflow.NewAssembler(120, 1, func(f *netflow.Flow) {
			label, ok := live.Labels[f.Key]
			if !ok {
				return
			}
			feat := f.Features()
			x := make([]float32, len(feat))
			copy(x, feat)
			det.Normalizer.ApplyVec(x)
			conf.Add(int(label), scoreModel.Predict(x))
			scored++
		})
		for i := range live.Packets {
			a.Add(&live.Packets[i])
		}
		a.Flush()
		if scored > 0 {
			fmt.Printf("scored %d labeled flows: accuracy %.4f, detection rate %.4f, false alarms %.4f\n",
				scored, conf.Accuracy(), conf.DetectionRate(0), conf.FalseAlarmRate(0))
			fmt.Println("\nconfusion matrix:")
			fmt.Print(conf)
		}
	}

	// Linger last, after every report is printed: scrapers polling final
	// counters get their window without stalling the operator's output.
	if metricsSrv != nil && *metricsLinger > 0 {
		fmt.Printf("metrics endpoint stays up %.0fs (http://%s/metrics)\n", *metricsLinger, metricsSrv.Addr())
		time.Sleep(time.Duration(*metricsLinger * float64(time.Second)))
	}
	return nil
}

// cmdServe runs one cluster detector worker: session configuration and
// model arrive over the wire from the ingest node (detect -workers), so
// the worker itself trains nothing and takes almost no flags.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9301", "TCP listen address for ingest connections")
	quiet := fs.Bool("q", false, "suppress per-session log lines")
	fs.Parse(args)
	cfg := cyberhd.ClusterWorkerConfig{}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	w, err := cyberhd.NewClusterWorker(*listen, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("cluster worker listening on %s\n", w.Addr())
	return w.Serve()
}

// lazyHandler lets the admin endpoint bind before the control plane
// exists: requests answer 503 until set stores the real handler (one
// atomic pointer swap, safe against in-flight requests).
type lazyHandler struct {
	h atomic.Pointer[http.Handler]
}

func (l *lazyHandler) set(h http.Handler) { l.h.Store(&h) }

func (l *lazyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, `{"error":"model control plane not ready (detector still training)"}`)
}
