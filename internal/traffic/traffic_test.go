package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"cyberhd/internal/netflow"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Sessions: 200, Seed: 7})
	b := Generate(Config{Sessions: 200, Seed: 7})
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("packet counts differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestGenerateTimeOrdered(t *testing.T) {
	s := Generate(Config{Sessions: 300, Seed: 1})
	for i := 1; i < len(s.Packets); i++ {
		if s.Packets[i].Time < s.Packets[i-1].Time {
			t.Fatalf("packets out of order at %d", i)
		}
	}
}

func TestEveryPacketHasLabel(t *testing.T) {
	s := Generate(Config{Sessions: 300, Seed: 2})
	for i := range s.Packets {
		key, _ := netflow.KeyOf(&s.Packets[i])
		if _, ok := s.Labels[key]; !ok {
			t.Fatalf("packet %d has no labeled flow", i)
		}
	}
}

func TestMixProportions(t *testing.T) {
	s := Generate(Config{Sessions: 4000, Seed: 3})
	counts := map[Label]int{}
	for _, l := range s.Labels {
		counts[l]++
	}
	if counts[Benign] == 0 {
		t.Fatal("no benign flows")
	}
	// Benign should dominate flows-by-session mix... but portscan/
	// bruteforce sessions expand into many flows, so just check presence
	// of every class.
	for l := Benign; l < Label(NumLabels); l++ {
		if counts[l] == 0 {
			t.Errorf("label %s absent from 4000 sessions", l)
		}
	}
}

func TestCustomMixOnlyRequestedLabels(t *testing.T) {
	s := Generate(Config{Sessions: 500, Seed: 4, Mix: map[Label]float64{Benign: 1}})
	for _, l := range s.Labels {
		if l != Benign {
			t.Fatalf("unexpected label %s in benign-only mix", l)
		}
	}
}

// flowsByLabel assembles the stream and groups completed flows.
func flowsByLabel(t *testing.T, s *Stream) map[Label][]*netflow.Flow {
	t.Helper()
	out := map[Label][]*netflow.Flow{}
	a := netflow.NewAssembler(120, 1, func(f *netflow.Flow) {
		l, ok := s.Labels[f.Key]
		if !ok {
			t.Fatalf("evicted flow has no label: %+v", f.Key)
		}
		out[l] = append(out[l], f)
	})
	for i := range s.Packets {
		a.Add(&s.Packets[i])
	}
	a.Flush()
	return out
}

func TestAttackSignatures(t *testing.T) {
	s := Generate(Config{Sessions: 1200, Seed: 5})
	flows := flowsByLabel(t, s)

	meanOver := func(fs []*netflow.Flow, f func(*netflow.Flow) float64) float64 {
		var sum float64
		for _, fl := range fs {
			sum += f(fl)
		}
		return sum / float64(len(fs))
	}

	// DoS flows should have a far higher packet rate than benign.
	rate := func(f *netflow.Flow) float64 {
		d := f.Duration()
		if d == 0 {
			return 0
		}
		return float64(f.TotalPackets()) / d
	}
	if len(flows[DoS]) == 0 || len(flows[Benign]) == 0 {
		t.Fatal("missing DoS or benign flows")
	}
	if dosRate, benignRate := meanOver(flows[DoS], rate), meanOver(flows[Benign], rate); dosRate < 5*benignRate {
		t.Errorf("DoS rate %.1f not >> benign rate %.1f", dosRate, benignRate)
	}

	// Port-scan flows are tiny.
	pkts := func(f *netflow.Flow) float64 { return float64(f.TotalPackets()) }
	if got := meanOver(flows[PortScan], pkts); got > 3 {
		t.Errorf("portscan mean packets = %.1f, want tiny", got)
	}

	// Botnet flows live long with regular IATs.
	if len(flows[Botnet]) > 0 {
		dur := meanOver(flows[Botnet], (*netflow.Flow).Duration)
		if dur < 30 {
			t.Errorf("botnet mean duration = %.1f s, want long", dur)
		}
		cv := meanOver(flows[Botnet], func(f *netflow.Flow) float64 {
			if f.FwdIAT.Mean() == 0 {
				return 1
			}
			return f.FwdIAT.Std() / f.FwdIAT.Mean()
		})
		if cv > 1.1 {
			t.Errorf("botnet IAT coefficient of variation = %.2f, want regular", cv)
		}
	}

	// Infiltration uploads much more than it downloads.
	if len(flows[Infiltration]) > 0 {
		upDown := meanOver(flows[Infiltration], func(f *netflow.Flow) float64 {
			if f.BwdLen.Sum == 0 {
				return 100
			}
			return f.FwdLen.Sum / f.BwdLen.Sum
		})
		if upDown < 5 {
			t.Errorf("infiltration up/down byte ratio = %.1f, want upload-heavy", upDown)
		}
	}
}

func TestLabelStrings(t *testing.T) {
	if Benign.String() != "benign" || PortScan.String() != "portscan" {
		t.Fatal("label names wrong")
	}
	if Label(99).String() != "label(99)" {
		t.Fatal("out-of-range label name")
	}
	if len(LabelNames()) != NumLabels {
		t.Fatal("LabelNames length")
	}
}

func TestFeaturesFiniteAcrossAllTraffic(t *testing.T) {
	s := Generate(Config{Sessions: 800, Seed: 6})
	flows := flowsByLabel(t, s)
	for label, fs := range flows {
		for _, f := range fs {
			for i, v := range f.Features() {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s flow: feature %d not finite", label, i)
				}
			}
		}
	}
}

// orderConfigs span the default mix and attack-heavy mixes whose floods
// and scans emit many packets per session.
var orderConfigs = []Config{
	{Sessions: 300, Seed: 1},
	{Sessions: 500, Seed: 7, Mix: map[Label]float64{DoS: 1, PortScan: 1, DDoS: 1}},
	{Sessions: 200, Seed: 3, Mix: map[Label]float64{Benign: 1, Botnet: 1}},
}

// TestSortByTimeMatchesSliceStable pins Generate's packet order to the
// reflective sort.SliceStable it replaced, on the generator's own
// emission order (equal timestamps included).
func TestSortByTimeMatchesSliceStable(t *testing.T) {
	for _, cfg := range orderConfigs {
		raw := generate(cfg).pkts
		want := slices.Clone(raw)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		got := sortByTime(raw)
		ties := 0
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: packet %d differs from the sort.SliceStable order", cfg.Seed, i)
			}
			if i > 0 && got[i].Time == got[i-1].Time {
				ties++
			}
		}
		t.Logf("seed %d: %d packets, %d equal-time neighbours", cfg.Seed, len(got), ties)
	}
}

// TestGeneratePinned hashes Generate's output for each orderConfigs entry
// against digests recorded with the sort.SliceStable implementation.
func TestGeneratePinned(t *testing.T) {
	want := []string{
		"8ac36cde6a0849798196347f0827f1ad1aa2e3288bc815915e6db17a50b4e5f3",
		"7e9a69a56c5c091ad5febb1301892f7e7737cacdd72f9b5bb67b401f26a014a9",
		"27c632833fd05821ceb7c486e29a2e24fa0184761c60864987c248ba477cb9ce",
	}
	for i, cfg := range orderConfigs {
		h := sha256.New()
		for _, p := range Generate(cfg).Packets {
			fmt.Fprintf(h, "%+v\n", p)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[i] {
			t.Errorf("seed %d: packet digest %s, want %s", cfg.Seed, got, want[i])
		}
	}
}

// TestGenerateSizesPacketsOnce pins the packet slice's capacity hint:
// for every single-label mix and the default mix, generate allocates the
// slice once (no regrowth past the hint) and over-allocates by little.
func TestGenerateSizesPacketsOnce(t *testing.T) {
	mixes := []map[Label]float64{nil}
	for l := Label(0); l < numLabels; l++ {
		mixes = append(mixes, map[Label]float64{l: 1})
	}
	for _, mix := range mixes {
		g := generate(Config{Sessions: 2000, Seed: 5, Mix: mix})
		n, c := len(g.pkts), cap(g.pkts)
		if c < n || float64(c) > 1.15*float64(n) {
			t.Errorf("mix %v: %d packets in capacity %d, want one allocation within 15%%", mix, n, c)
		}
	}
}
