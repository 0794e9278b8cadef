// Package traffic synthesizes labeled packet streams with benign and
// attack behaviours, substituting for the raw captures behind the
// CIC-IDS-2017/2018 datasets (see the Datasets section of README.md).
//
// Each session generator writes the packets of one logical conversation
// with behaviour-specific size, rate, flag and duration signatures taken
// from the published dataset descriptions: port scans are bursts of tiny
// SYN/RST exchanges across ports, DoS floods are high-rate repeated
// requests, brute force is a regular drumbeat of short authentication
// flows, botnet traffic is low-and-slow periodic beaconing, and so on.
// Sessions are interleaved in time and keyed uniquely so the flow
// assembler (internal/netflow) can reconstruct and label every flow.
package traffic

import (
	"fmt"
	"math"
	"slices"

	"cyberhd/internal/netflow"
	"cyberhd/internal/rng"
)

// Label classifies a flow. The set matches the CIC-IDS-2017 taxonomy used
// in the paper's Fig 3 (2018 uses a subset).
type Label int

// Traffic labels.
const (
	Benign Label = iota
	DoS
	DDoS
	PortScan
	BruteForce
	WebAttack
	Botnet
	Infiltration
	numLabels
)

// NumLabels is the number of distinct labels.
const NumLabels = int(numLabels)

var labelNames = [...]string{
	"benign", "dos", "ddos", "portscan", "bruteforce",
	"webattack", "botnet", "infiltration",
}

// String returns the lowercase label name.
func (l Label) String() string {
	if l < 0 || int(l) >= len(labelNames) {
		return fmt.Sprintf("label(%d)", int(l))
	}
	return labelNames[l]
}

// LabelNames returns all label names in label order.
func LabelNames() []string {
	out := make([]string, len(labelNames))
	copy(out, labelNames[:])
	return out
}

// Stream is a generated capture: time-ordered packets plus the ground-truth
// label of every flow key.
type Stream struct {
	Packets []netflow.Packet
	Labels  map[netflow.FlowKey]Label
}

// Config parameterizes Generate.
type Config struct {
	// Sessions is the number of conversations to generate.
	Sessions int
	// Duration is the capture window in seconds over which session start
	// times are spread. Defaults to Sessions/4 seconds.
	Duration float64
	// Mix gives relative weights per label. Nil selects the default mix
	// (70% benign, the rest split across attacks).
	Mix map[Label]float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultMix mirrors the strong class imbalance of the CIC datasets.
func DefaultMix() map[Label]float64 {
	return map[Label]float64{
		Benign: 0.70, DoS: 0.08, DDoS: 0.06, PortScan: 0.06,
		BruteForce: 0.04, WebAttack: 0.02, Botnet: 0.02, Infiltration: 0.02,
	}
}

// gen carries generator state.
type gen struct {
	r        *rng.Rand
	pkts     []netflow.Packet
	labels   map[netflow.FlowKey]Label
	nextPort uint16
	nextHost uint32
	// pace and szm are per-session jitter multipliers on inter-packet
	// times and payload sizes. Together with occasional mimicry modes in
	// the attack generators they make class signatures overlap, so the
	// datasets are not trivially separable (real captures are not).
	pace float64
	szm  float64
}

// Generate synthesizes a labeled packet stream.
func Generate(cfg Config) *Stream {
	g := generate(cfg)
	return &Stream{Packets: sortByTime(g.pkts), Labels: g.labels}
}

// meanPackets is the expected packet count of one session per label,
// read off the session generators below (benign averages its four
// session kinds). generate sizes the packet slice from it.
var meanPackets = [NumLabels]float64{
	Benign:       110,
	DoS:          318,
	DDoS:         99.5,
	PortScan:     24.5,
	BruteForce:   85.5,
	WebAttack:    15,
	Botnet:       55,
	Infiltration: 107,
}

// generate runs every session of cfg, leaving the packets in emission
// order (session by session).
func generate(cfg Config) *gen {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = float64(cfg.Sessions) / 4
	}
	mix := cfg.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	weights := make([]float64, NumLabels)
	for l, w := range mix {
		if int(l) < NumLabels && w > 0 {
			weights[l] = w
		}
	}
	var wsum, perSession float64
	for l, w := range weights {
		wsum += w
		perSession += w * meanPackets[l]
	}
	hint := 0
	if wsum > 0 {
		// 1/16 headroom over the expected count absorbs sampling spread,
		// so the packet slice is allocated once and never regrown.
		hint = int(float64(cfg.Sessions) * perSession / wsum * 17 / 16)
	}
	g := &gen{
		r:        rng.New(cfg.Seed),
		pkts:     make([]netflow.Packet, 0, hint),
		labels:   make(map[netflow.FlowKey]Label),
		nextPort: 10000,
		nextHost: netflow.IPv4(10, 1, 0, 1).V4(),
	}
	for s := 0; s < cfg.Sessions; s++ {
		start := g.r.Float64() * cfg.Duration
		label := Label(g.r.Categorical(weights))
		g.session(label, start)
	}
	return g
}

// sortByTime returns pkts in stable time order — the order
// sort.SliceStable by Time gives, which is unique — by sorting compact
// (Time, index) keys and gathering the packets once, instead of swapping
// whole packets through a reflective swapper.
func sortByTime(pkts []netflow.Packet) []netflow.Packet {
	type key struct {
		t float64
		i int
	}
	keys := make([]key, len(pkts))
	for i := range pkts {
		keys[i] = key{pkts[i].Time, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		}
		return a.i - b.i
	})
	out := make([]netflow.Packet, len(pkts))
	for j, k := range keys {
		out[j] = pkts[k.i]
	}
	return out
}

// client allocates a unique (IP, port) pair so session flows never collide.
func (g *gen) client() (netflow.Addr, uint16) {
	ip := g.nextHost
	port := g.nextPort
	g.nextPort++
	if g.nextPort >= 60000 {
		g.nextPort = 10000
		g.nextHost++
	}
	return netflow.AddrV4(ip), port
}

// step returns a per-packet time increment in [lo, hi) scaled by the
// session pace.
func (g *gen) step(lo, hi float64) float64 {
	return (lo + (hi-lo)*g.r.Float64()) * g.pace
}

// size returns a payload size in [lo, hi] scaled by the session size
// multiplier, floored at a minimal header-only packet.
func (g *gen) size(lo, hi int) int {
	n := lo
	if hi > lo {
		n += g.r.Intn(hi - lo + 1)
	}
	n = int(float64(n) * g.szm)
	if n < 40 {
		n = 40
	}
	return n
}

// Well-known servers inside the simulated network.
var (
	webServer  = netflow.IPv4(172, 16, 0, 10)
	sshServer  = netflow.IPv4(172, 16, 0, 11)
	dnsServer  = netflow.IPv4(172, 16, 0, 12)
	fileServer = netflow.IPv4(172, 16, 0, 13)
	c2Server   = netflow.IPv4(203, 0, 113, 66)
	victim     = netflow.IPv4(172, 16, 0, 20)
)

func (g *gen) session(label Label, start float64) {
	g.pace = math.Exp(0.45 * g.r.Norm()) // lognormal pace jitter
	g.szm = 0.7 + 0.6*g.r.Float64()
	switch label {
	case Benign:
		switch g.r.Intn(4) {
		case 0:
			g.webBrowsing(start)
		case 1:
			g.bulkTransfer(start)
		case 2:
			g.dnsQuery(start)
		default:
			g.interactiveSSH(start)
		}
	case DoS:
		g.dosFlood(start)
	case DDoS:
		g.ddosFlow(start)
	case PortScan:
		g.portScan(start)
	case BruteForce:
		g.bruteForce(start)
	case WebAttack:
		g.webAttack(start)
	case Botnet:
		g.botnetBeacon(start)
	case Infiltration:
		g.infiltration(start)
	}
}

// emit appends a packet and registers the flow label on first sight.
func (g *gen) emit(p netflow.Packet, label Label) {
	key, _ := netflow.KeyOf(&p)
	if _, seen := g.labels[key]; !seen {
		g.labels[key] = label
	}
	g.pkts = append(g.pkts, p)
}

// tcp emits one TCP packet.
func (g *gen) tcp(t float64, srcIP netflow.Addr, srcPort uint16, dstIP netflow.Addr, dstPort uint16,
	length int, flags uint8, win uint16, label Label) {
	g.emit(netflow.Packet{
		Time: t, SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort,
		Proto: netflow.TCP, Length: length, HeaderLen: 40, Flags: flags, WindowSize: win,
	}, label)
}

// handshake emits SYN / SYN-ACK / ACK and returns the time after it.
func (g *gen) handshake(t float64, cIP netflow.Addr, cPort uint16, sIP netflow.Addr, sPort uint16,
	rtt float64, label Label) float64 {
	g.tcp(t, cIP, cPort, sIP, sPort, 60, netflow.SYN, 64240, label)
	g.tcp(t+rtt/2, sIP, sPort, cIP, cPort, 60, netflow.SYN|netflow.ACK, 28960, label)
	g.tcp(t+rtt, cIP, cPort, sIP, sPort, 52, netflow.ACK, 64240, label)
	return t + rtt
}

// closeFin emits the FIN / FIN-ACK / ACK sequence.
func (g *gen) closeFin(t float64, cIP netflow.Addr, cPort uint16, sIP netflow.Addr, sPort uint16,
	rtt float64, label Label) {
	g.tcp(t, cIP, cPort, sIP, sPort, 52, netflow.FIN|netflow.ACK, 64240, label)
	g.tcp(t+rtt/2, sIP, sPort, cIP, cPort, 52, netflow.FIN|netflow.ACK, 28960, label)
	g.tcp(t+rtt, cIP, cPort, sIP, sPort, 52, netflow.ACK, 64240, label)
}

// webBrowsing: handshake, 2–6 request/response cycles with human think
// time, graceful close.
func (g *gen) webBrowsing(start float64) {
	cIP, cPort := g.client()
	sPort := uint16(443)
	if g.r.Bernoulli(0.3) {
		sPort = 80
	}
	rtt := 0.01 + 0.04*g.r.Float64()
	t := g.handshake(start, cIP, cPort, webServer, sPort, rtt, Benign)
	cycles := 2 + g.r.Intn(5)
	rapid := g.r.Bernoulli(0.2) // scripted clients hammer like a flood
	for i := 0; i < cycles; i++ {
		if rapid {
			t += g.step(0.001, 0.01)
		} else {
			t += g.step(0.05, 0.45) // think time
		}
		g.tcp(t, cIP, cPort, webServer, sPort, g.size(300, 1200), netflow.PSH|netflow.ACK, 64240, Benign)
		resp := 1 + g.r.Intn(8)
		for j := 0; j < resp; j++ {
			t += rtt * (0.5 + g.r.Float64())
			g.tcp(t, webServer, sPort, cIP, cPort, g.size(1000, 1500), netflow.ACK, 28960, Benign)
		}
		t += rtt
		g.tcp(t, cIP, cPort, webServer, sPort, 52, netflow.ACK, 64240, Benign)
	}
	g.closeFin(t+0.01, cIP, cPort, webServer, sPort, rtt, Benign)
}

// bulkTransfer: large steady download from the file server.
func (g *gen) bulkTransfer(start float64) {
	cIP, cPort := g.client()
	rtt := 0.005 + 0.02*g.r.Float64()
	t := g.handshake(start, cIP, cPort, fileServer, 445, rtt, Benign)
	t += rtt
	g.tcp(t, cIP, cPort, fileServer, 445, 200, netflow.PSH|netflow.ACK, 64240, Benign)
	n := 50 + g.r.Intn(400)
	bursty := g.r.Bernoulli(0.25) // LAN-speed transfers approach flood rates
	for i := 0; i < n; i++ {
		if bursty {
			t += g.step(0.0002, 0.001)
		} else {
			t += g.step(0.001, 0.003)
		}
		g.tcp(t, fileServer, 445, cIP, cPort, g.size(1200, 1500), netflow.ACK, 28960, Benign)
		if i%10 == 9 {
			g.tcp(t+0.0005, cIP, cPort, fileServer, 445, 52, netflow.ACK, 64240, Benign)
		}
	}
	g.closeFin(t+rtt, cIP, cPort, fileServer, 445, rtt, Benign)
}

// dnsQuery: two-packet UDP exchange.
func (g *gen) dnsQuery(start float64) {
	cIP, cPort := g.client()
	q := 60 + g.r.Intn(40)
	g.emit(netflow.Packet{
		Time: start, SrcIP: cIP, DstIP: dnsServer, SrcPort: cPort, DstPort: 53,
		Proto: netflow.UDP, Length: q, HeaderLen: 28,
	}, Benign)
	g.emit(netflow.Packet{
		Time: start + 0.002 + 0.02*g.r.Float64(), SrcIP: dnsServer, DstIP: cIP,
		SrcPort: 53, DstPort: cPort, Proto: netflow.UDP,
		Length: 100 + g.r.Intn(300), HeaderLen: 28,
	}, Benign)
}

// interactiveSSH: long low-rate conversation of small packets.
func (g *gen) interactiveSSH(start float64) {
	cIP, cPort := g.client()
	rtt := 0.01 + 0.03*g.r.Float64()
	t := g.handshake(start, cIP, cPort, sshServer, 22, rtt, Benign)
	n := 20 + g.r.Intn(80)
	for i := 0; i < n; i++ {
		t += 0.1 + 1.5*g.r.Float64() // keystroke cadence
		g.tcp(t, cIP, cPort, sshServer, 22, 60+g.r.Intn(60), netflow.PSH|netflow.ACK, 64240, Benign)
		t += rtt
		g.tcp(t, sshServer, 22, cIP, cPort, 60+g.r.Intn(120), netflow.PSH|netflow.ACK, 28960, Benign)
	}
	g.closeFin(t+0.05, cIP, cPort, sshServer, 22, rtt, Benign)
}

// dosFlood: one source hammering the web server with rapid identical
// requests — high packet rate, tiny IAT, many PSH, few bwd packets.
func (g *gen) dosFlood(start float64) {
	cIP, cPort := g.client()
	rtt := 0.002
	vPort := uint16(80)
	if g.r.Bernoulli(0.4) {
		vPort = 443
	}
	t := g.handshake(start, cIP, cPort, victim, vPort, rtt, DoS)
	n := 100 + g.r.Intn(400)
	slow := g.r.Bernoulli(0.3) // slowloris-style: low rate, long hold
	for i := 0; i < n; i++ {
		if slow {
			t += g.step(0.005, 0.05)
		} else {
			t += g.step(0.0002, 0.001)
		}
		g.tcp(t, cIP, cPort, victim, vPort, g.size(220, 600), netflow.PSH|netflow.ACK, 512, DoS)
		if i%20 == 19 { // overwhelmed server answers rarely
			g.tcp(t+0.001, victim, vPort, cIP, cPort, 120, netflow.ACK, 100, DoS)
		}
	}
	g.tcp(t+0.001, victim, vPort, cIP, cPort, 40, netflow.RST, 0, DoS)
}

// ddosFlow: one flow of a distributed flood — like DoS but shorter per
// source with UDP amplification-style constant-size packets.
func (g *gen) ddosFlow(start float64) {
	cIP, cPort := g.client()
	n := 40 + g.r.Intn(120)
	t := start
	for i := 0; i < n; i++ {
		t += g.step(0.0001, 0.0005)
		g.emit(netflow.Packet{
			Time: t, SrcIP: cIP, DstIP: victim, SrcPort: cPort, DstPort: 80,
			Proto: netflow.UDP, Length: g.size(400, 620), HeaderLen: 28,
		}, DDoS)
	}
}

// portScan: SYN probes against many ports; victim RSTs. Each probe is its
// own tiny flow.
func (g *gen) portScan(start float64) {
	cIP, cPort := g.client()
	ports := 5 + g.r.Intn(20)
	t := start
	stealthy := g.r.Bernoulli(0.3) // IDS-evading slow scan
	for i := 0; i < ports; i++ {
		dst := uint16(1 + g.r.Intn(10000))
		if stealthy {
			t += g.step(0.5, 3)
		} else {
			t += g.step(0.001, 0.011)
		}
		g.tcp(t, cIP, cPort, victim, dst, 44, netflow.SYN, 1024, PortScan)
		if g.r.Bernoulli(0.7) { // closed port answers RST
			g.tcp(t+0.001, victim, dst, cIP, cPort, 40, netflow.RST|netflow.ACK, 0, PortScan)
		}
		cPort++ // scanners rotate source ports
	}
}

// bruteForce: a drumbeat of short SSH authentication attempts.
func (g *gen) bruteForce(start float64) {
	cIP, _ := g.client()
	attempts := 4 + g.r.Intn(12)
	t := start
	for i := 0; i < attempts; i++ {
		_, cPort := g.client()
		rtt := 0.005
		tt := g.handshake(t, cIP, cPort, sshServer, 22, rtt, BruteForce)
		// banner, auth attempt, rejection
		g.tcp(tt+0.01, sshServer, 22, cIP, cPort, 90, netflow.PSH|netflow.ACK, 28960, BruteForce)
		g.tcp(tt+0.03, cIP, cPort, sshServer, 22, 150+g.r.Intn(60), netflow.PSH|netflow.ACK, 64240, BruteForce)
		g.tcp(tt+0.05, sshServer, 22, cIP, cPort, 70, netflow.PSH|netflow.ACK, 28960, BruteForce)
		g.closeFin(tt+0.06, cIP, cPort, sshServer, 22, rtt, BruteForce)
		if g.r.Bernoulli(0.2) {
			t += g.step(0.5, 5) // tools with randomized backoff
		} else {
			t += g.step(0.5, 1) // regular retry cadence
		}
	}
}

// webAttack: HTTP with an abnormally large request payload (injection
// string) and an error-page response.
func (g *gen) webAttack(start float64) {
	cIP, cPort := g.client()
	rtt := 0.01 + 0.02*g.r.Float64()
	t := g.handshake(start, cIP, cPort, webServer, 80, rtt, WebAttack)
	probes := 2 + g.r.Intn(6)
	for i := 0; i < probes; i++ {
		t += 0.05 + 0.1*g.r.Float64()
		sz := g.size(1200, 3000)
		flags := netflow.PSH | netflow.ACK | netflow.URG
		if g.r.Bernoulli(0.45) { // low-volume probes hide in normal traffic
			sz = g.size(300, 900)
			flags = netflow.PSH | netflow.ACK
		}
		g.tcp(t, cIP, cPort, webServer, 80, sz, flags, 64240, WebAttack)
		t += rtt
		g.tcp(t, webServer, 80, cIP, cPort, 400+g.r.Intn(200), netflow.PSH|netflow.ACK, 28960, WebAttack)
	}
	g.closeFin(t+0.01, cIP, cPort, webServer, 80, rtt, WebAttack)
}

// botnetBeacon: long-lived, metronome-regular small exchanges with an
// external C2 host.
func (g *gen) botnetBeacon(start float64) {
	cIP, cPort := g.client()
	rtt := 0.05
	t := g.handshake(start, cIP, cPort, c2Server, 8080, rtt, Botnet)
	beacons := 10 + g.r.Intn(30)
	period := 5 + 10*g.r.Float64()
	jitterFrac := 0.04
	if g.r.Bernoulli(0.25) { // jitter-aware malware randomizes beacons
		jitterFrac = 0.6
	}
	for i := 0; i < beacons; i++ {
		t += period * (1 - jitterFrac/2 + jitterFrac*g.r.Float64())
		g.tcp(t, cIP, cPort, c2Server, 8080, 120+g.r.Intn(16), netflow.PSH|netflow.ACK, 64240, Botnet)
		t += rtt
		g.tcp(t, c2Server, 8080, cIP, cPort, 100+g.r.Intn(16), netflow.PSH|netflow.ACK, 28960, Botnet)
	}
	g.closeFin(t+0.05, cIP, cPort, c2Server, 8080, rtt, Botnet)
}

// infiltration: low-and-slow exfiltration — long duration, large upload
// volume, small response trickle.
func (g *gen) infiltration(start float64) {
	cIP, cPort := g.client()
	rtt := 0.04
	t := g.handshake(start, cIP, cPort, c2Server, 443, rtt, Infiltration)
	chunks := 30 + g.r.Intn(120)
	for i := 0; i < chunks; i++ {
		t += g.step(0.2, 2.2)
		g.tcp(t, cIP, cPort, c2Server, 443, g.size(1300, 1500), netflow.PSH|netflow.ACK, 64240, Infiltration)
		if i%8 == 7 {
			t += rtt
			g.tcp(t, c2Server, 443, cIP, cPort, 60, netflow.ACK, 28960, Infiltration)
		}
	}
	g.closeFin(t+0.1, cIP, cPort, c2Server, 443, rtt, Infiltration)
}
