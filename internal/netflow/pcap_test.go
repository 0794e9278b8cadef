package netflow

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// pcapTestPackets is a mixed v4/v6/VLAN set, times on the nanosecond
// grid, covering every transport the decode stack handles.
func pcapTestPackets() []Packet {
	return []Packet{
		{Time: RoundToNanos(0.000001), SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
			SrcPort: 40000, DstPort: 443, Proto: TCP, Length: 60, HeaderLen: 40, Flags: SYN, WindowSize: 64240},
		{Time: RoundToNanos(0.25), SrcIP: IPv4(10, 0, 0, 2), DstIP: IPv4(10, 0, 0, 1),
			SrcPort: 443, DstPort: 40000, Proto: TCP, Length: 1500, HeaderLen: 40, Flags: ACK, WindowSize: 29200, VLAN: 42},
		{Time: RoundToNanos(0.5), SrcIP: MustParseAddr("2001:db8::1"), DstIP: MustParseAddr("2001:db8::2"),
			SrcPort: 5353, DstPort: 53, Proto: UDP, Length: 120, HeaderLen: 48},
		{Time: RoundToNanos(0.75), SrcIP: MustParseAddr("2001:db8::2"), DstIP: MustParseAddr("2001:db8::1"),
			SrcPort: 33000, DstPort: 22, Proto: TCP, Length: 80, HeaderLen: 60, Flags: SYN | ACK, WindowSize: 1024, VLAN: 7},
		{Time: RoundToNanos(1.0), SrcIP: IPv4(192, 168, 1, 1), DstIP: IPv4(192, 168, 1, 2),
			Proto: ICMP, Length: 84, HeaderLen: 28},
		{Time: RoundToNanos(1.5), SrcIP: MustParseAddr("fe80::1"), DstIP: MustParseAddr("fe80::2"),
			Proto: ICMP, Length: 104, HeaderLen: 48},
	}
}

func drainPCAP(t *testing.T, src *PCAPSource) []Packet {
	t.Helper()
	var out []Packet
	var p Packet
	for {
		err := src.Next(&p)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

// TestPCAPRoundTrip pins the writer/decoder pair: every feature field of
// a mixed v4/v6/VLAN packet set survives the trip through a synthesized
// Ethernet PCAP bit-identically.
func TestPCAPRoundTrip(t *testing.T) {
	pkts := pcapTestPackets()
	var buf bytes.Buffer
	if err := WritePCAP(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	src, err := NewPCAPSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := drainPCAP(t, src)
	if len(got) != len(pkts) {
		t.Fatalf("decoded %d packets, wrote %d (skipped %d)", len(got), len(pkts), src.Skipped())
	}
	for i := range pkts {
		if got[i] != pkts[i] {
			t.Errorf("packet %d changed:\n got %+v\nwant %+v", i, got[i], pkts[i])
		}
	}
	if src.Skipped() != 0 {
		t.Errorf("skipped %d frames of a fully-decodable capture", src.Skipped())
	}
}

// TestPCAPWriterRejects pins the writer's refusal to emit frames that
// would decode differently than the packet they were given.
func TestPCAPWriterRejects(t *testing.T) {
	bad := []Packet{
		{SrcIP: IPv4(1, 2, 3, 4), DstIP: MustParseAddr("2001:db8::1"), Proto: TCP, Length: 60, HeaderLen: 40},
		{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), Proto: TCP, Length: 60, HeaderLen: 30},
		{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), Proto: TCP, Length: 30, HeaderLen: 40},
		{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), Proto: TCP, Length: 70000, HeaderLen: 40},
		{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), Proto: ICMP, SrcPort: 7, Length: 60, HeaderLen: 28},
		{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), Proto: Proto(47), Length: 60, HeaderLen: 28},
		{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), Proto: UDP, Length: 60, HeaderLen: 28, VLAN: 5000},
		{Time: -1, SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), Proto: UDP, Length: 60, HeaderLen: 28},
	}
	for i := range bad {
		if err := WritePCAP(&bytes.Buffer{}, bad[i:i+1]); err == nil {
			t.Errorf("packet %d accepted: %+v", i, bad[i])
		}
	}
}

// TestPCAPSkipsForeignFrames feeds frames outside the decode stack (ARP,
// QinQ-wrapped v4, a later fragment) and checks skip-vs-decode behavior.
func TestPCAPSkipsForeignFrames(t *testing.T) {
	// Start from one good packet, then splice hand-built records after it.
	good := pcapTestPackets()[:1]
	var buf bytes.Buffer
	if err := WritePCAP(&buf, good); err != nil {
		t.Fatal(err)
	}
	addRec := func(frame []byte) {
		var rh [16]byte
		binary.LittleEndian.PutUint32(rh[8:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(rh[12:], uint32(len(frame)))
		buf.Write(rh[:])
		buf.Write(frame)
	}
	// ARP frame: ethertype 0x0806.
	arp := make([]byte, 42)
	arp[12], arp[13] = 0x08, 0x06
	addRec(arp)
	// QinQ: 0x88a8 outer tag 100, inner 0x8100 tag 200, then IPv4/UDP.
	qinq := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x88, 0xa8, 0x00, 100, 0x81, 0x00, 0x00, 200, 0x08, 0x00}
	ip := []byte{0x45, 0, 0, 36, 0, 0, 0, 0, 64, 17, 0, 0, 10, 0, 0, 9, 10, 0, 0, 8}
	udp := []byte{0x30, 0x39, 0x00, 0x35, 0, 16, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	addRec(append(append(qinq, ip...), udp...))
	// Later IPv4 fragment: fragment offset nonzero.
	frag := append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x08, 0x00}, ip...)
	frag[14+6] = 0x00
	frag[14+7] = 0x10 // offset 16
	addRec(frag)

	src, err := NewPCAPSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := drainPCAP(t, src)
	if len(got) != 2 {
		t.Fatalf("decoded %d packets, want 2 (the good one and the QinQ one)", len(got))
	}
	q := got[1]
	if q.VLAN != 100 {
		t.Errorf("QinQ outer tag = %d, want 100", q.VLAN)
	}
	if q.Proto != UDP || q.SrcPort != 0x3039 || q.DstPort != 0x35 {
		t.Errorf("QinQ inner packet decoded wrong: %+v", q)
	}
	if src.Skipped() != 2 {
		t.Errorf("skipped %d frames, want 2 (ARP + fragment)", src.Skipped())
	}
}

// writePcapng renders packets as a minimal pcapng section (SHB + one
// Ethernet IDB with nanosecond if_tsresol + one EPB per packet) — the
// fixture generator for the pcapng read path.
func writePcapng(t testing.TB, pkts []Packet) []byte {
	t.Helper()
	le := binary.LittleEndian
	var out bytes.Buffer
	block := func(typ uint32, body []byte) {
		total := uint32(12 + (len(body)+3)/4*4)
		var w [8]byte
		le.PutUint32(w[0:], typ)
		le.PutUint32(w[4:], total)
		out.Write(w[:])
		out.Write(body)
		for i := len(body); i%4 != 0; i++ {
			out.WriteByte(0)
		}
		le.PutUint32(w[0:4], total)
		out.Write(w[0:4])
	}
	// SHB: byte-order magic, version 1.0, section length -1.
	shb := make([]byte, 16)
	le.PutUint32(shb[0:], pcapngByteOrder)
	le.PutUint16(shb[4:], 1)
	le.PutUint64(shb[8:], ^uint64(0))
	block(pcapngBlockSHB, shb)
	// IDB: Ethernet, snaplen 0 (none), if_tsresol = 9 (nanoseconds).
	idb := make([]byte, 8, 16)
	le.PutUint16(idb[0:], linkEthernet)
	idb = append(idb, 9, 0, 1, 0, 9, 0, 0, 0) // opt 9 len 1 value 9 (padded)
	block(pcapngBlockIDB, idb)
	for i := range pkts {
		frame, err := appendFrame(nil, &pkts[i])
		if err != nil {
			t.Fatal(err)
		}
		ts := uint64(pkts[i].Time * 1e9)
		body := make([]byte, 20, 20+len(frame))
		le.PutUint32(body[4:], uint32(ts>>32))
		le.PutUint32(body[8:], uint32(ts))
		le.PutUint32(body[12:], uint32(len(frame)))
		le.PutUint32(body[16:], uint32(len(frame)))
		body = append(body, frame...)
		block(pcapngBlockEPB, body)
	}
	return out.Bytes()
}

// TestPcapngRoundTrip pins the pcapng read path over the same mixed
// packet set as the classic format.
func TestPcapngRoundTrip(t *testing.T) {
	pkts := pcapTestPackets()
	raw := writePcapng(t, pkts)
	src, err := NewPCAPSource(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := drainPCAP(t, src)
	if len(got) != len(pkts) {
		t.Fatalf("decoded %d packets, wrote %d (skipped %d)", len(got), len(pkts), src.Skipped())
	}
	for i := range pkts {
		// ns timestamps through a uint64 tick counter: identical floats.
		if got[i] != pkts[i] {
			t.Errorf("packet %d changed:\n got %+v\nwant %+v", i, got[i], pkts[i])
		}
	}
}

// TestPCAPSourceConstantMemory pins the O(1) claim for both containers:
// a full scan of a 30k-packet classic PCAP or pcapng capture allocates a
// small constant (source, bufio buffer, record buffer), not one object
// per record.
func TestPCAPSourceConstantMemory(t *testing.T) {
	const n = 30_000
	base := pcapTestPackets()
	pkts := make([]Packet, n)
	for i := range pkts {
		pkts[i] = base[i%len(base)]
		pkts[i].Time = RoundToNanos(float64(i) * 1e-3)
	}
	var classic bytes.Buffer
	if err := WritePCAP(&classic, pkts); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"pcap": classic.Bytes(), "pcapng": writePcapng(t, pkts)} {
		allocs := testing.AllocsPerRun(3, func() {
			src, err := NewPCAPSource(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var p Packet
			total := 0
			for src.Next(&p) == nil {
				total++
			}
			if total != n {
				t.Fatalf("%s: scanned %d packets, want %d", name, total, n)
			}
		})
		if allocs > 32 {
			t.Errorf("%s: full scan of %d packets made %.0f allocations, want O(1)", name, n, allocs)
		}
	}
}

// TestPCAPWriterConstantMemory pins the writer side of the O(1) claim:
// rendering a 30k-record PCAP allocates a small constant (writer, bufio
// buffer, frame buffer), not one object per record.
func TestPCAPWriterConstantMemory(t *testing.T) {
	const n = 30_000
	base := pcapTestPackets()
	pkts := make([]Packet, n)
	for i := range pkts {
		pkts[i] = base[i%len(base)]
		pkts[i].Time = RoundToNanos(float64(i) * 1e-3)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := WritePCAP(io.Discard, pkts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("writing %d packets made %.0f allocations, want O(1)", n, allocs)
	}
}

// TestPCAPRejectsGarbage pins the container-corruption error paths.
func TestPCAPRejectsGarbage(t *testing.T) {
	if _, err := NewPCAPSource(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("unknown magic accepted")
	}
	if _, err := NewPCAPSource(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// A record claiming a hostile caplen must error, not allocate.
	var buf bytes.Buffer
	if err := WritePCAP(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var rh [16]byte
	binary.LittleEndian.PutUint32(rh[8:], 1<<31)
	buf.Write(rh[:])
	src, err := NewPCAPSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := src.Next(&p); err == nil || err == io.EOF {
		t.Errorf("hostile caplen: got %v, want a corruption error", err)
	}
	// Truncation mid-record errors too.
	buf.Reset()
	if err := WritePCAP(&buf, pcapTestPackets()[:1]); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	src, err = NewPCAPSource(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Next(&p); err == nil || err == io.EOF {
		t.Errorf("truncated record: got %v, want a corruption error", err)
	}
}
