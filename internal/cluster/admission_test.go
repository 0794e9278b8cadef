package cluster

import (
	"errors"
	"testing"
	"time"

	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/telemetry"
)

// TestClusterAdmissionRefusesBrokenWorker pins honest admission: once a
// worker's connection has latched an error, TryFeed and FeedWithin refuse
// that worker's flows (Feed would silently discard them) while the other
// worker's flows are still admitted — so a Gate in front counts every
// discarded packet as a drop and offered = processed + dropped holds
// cluster-wide.
func TestClusterAdmissionRefusesBrokenWorker(t *testing.T) {
	names := []string{"benign", "attack"}
	norm := &datasets.Normalizer{
		Mean:   make([]float32, netflow.NumFeatures),
		InvStd: make([]float32, netflow.NumFeatures),
	}
	for i := range norm.InvStd {
		norm.InvStd[i] = 1
	}
	client, err := Dial(ClientConfig{
		Workers:    startWorkers(t, 2, WorkerConfig{}),
		Model:      core.NewCOWModel(tinyModel(t, len(names), netflow.NumFeatures, 64, 3)),
		Normalizer: norm, ClassNames: names,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// One packet per flow, split by owning worker.
	down := client.conns[0]
	var toDown, toUp []netflow.Packet
	for i := 0; len(toDown) < 5 || len(toUp) < 5; i++ {
		p := netflow.Packet{
			Time: 1, SrcIP: netflow.AddrV4(0x0A000001 + uint32(i)), DstIP: netflow.AddrV4(0x0B000001),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: netflow.TCP, Length: 60, HeaderLen: 40,
		}
		if client.route(&p) == down {
			toDown = append(toDown, p)
		} else {
			toUp = append(toUp, p)
		}
	}
	down.fail(errors.New("injected transport failure"))

	for _, p := range toDown {
		if client.TryFeed(p) {
			t.Fatal("TryFeed admitted a packet routed to a broken worker")
		}
		if client.FeedWithin(p, time.Millisecond) {
			t.Fatal("FeedWithin admitted a packet routed to a broken worker")
		}
	}
	for _, p := range toUp {
		if !client.TryFeed(p) {
			t.Fatal("TryFeed refused a packet routed to a healthy worker")
		}
	}

	// Through a Gate the refusals become counted backpressure drops.
	g := pipeline.NewGate(client, pipeline.OverloadPolicy{MaxWait: time.Millisecond})
	for _, p := range append(toDown, toUp...) {
		g.Feed(p)
	}
	g.Close()
	if client.Err() == nil {
		t.Fatal("Err is nil after a worker connection failed")
	}
	st := g.Stats()
	if st.Packets != 2*len(toUp) {
		t.Fatalf("processed %d packets, want %d (direct + gated, healthy worker only)", st.Packets, 2*len(toUp))
	}
	if got := st.Dropped[telemetry.DropBackpressure]; got != len(toDown) {
		t.Fatalf("backpressure drops = %d, want %d", got, len(toDown))
	}
	if offered := len(toUp) + len(toDown) + len(toUp); st.Packets+st.DroppedTotal() != offered {
		t.Fatalf("accounting: %d processed + %d dropped != %d offered", st.Packets, st.DroppedTotal(), offered)
	}
}
