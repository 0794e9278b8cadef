package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"cyberhd/internal/netflow"
	"cyberhd/internal/traffic"
)

// snapLen is the PCAP snap length of the pcap-fed workloads: enough for
// every Ethernet/IPv4-or-IPv6/TCP-or-UDP header stack the generator
// emits, so decoding loses no feature field.
const snapLen = 128

// input is one workload's generated load: the packets (kept only until
// the reference replay has run), their ground-truth labels, and the
// serialized image the timed passes read.
type input struct {
	packets []netflow.Packet
	labels  map[netflow.FlowKey]traffic.Label
	img     *image
	pcap    bool
	n       int // packet count
	shape   shape
}

// shape summarizes a capture so later changes can say what share of a
// workload has the property they target.
type shape struct {
	Packets        int     `json:"packets"`
	Flows          int     `json:"flows"`
	PacketsPerFlow float64 `json:"packets_per_flow"`
	AttackShare    float64 `json:"attack_flow_share"`
	V6Share        float64 `json:"v6_flow_share"`
}

// generate builds the workload's capture from seed: the session mix,
// the per-flow IPv6 rewrite, timestamps on the nanosecond grid, and the
// PCAP (snap length snapLen) or binary capture image. It checks that the
// image decodes back to exactly the generated packets.
func generate(w workload, seed uint64, sessions int) (*input, error) {
	s := traffic.Generate(traffic.Config{Sessions: sessions, Seed: seed, Mix: w.mix})
	in := &input{packets: s.Packets, pcap: w.pcap, n: len(s.Packets)}
	for i := range in.packets {
		p := &in.packets[i]
		if k, _ := netflow.KeyOf(p); electV6(k, w.v6) {
			p.SrcIP, p.DstIP = toV6(p.SrcIP), toV6(p.DstIP)
			// The 20-byte IPv4 header becomes the 40-byte IPv6 header.
			p.HeaderLen += 20
			p.Length += 20
		}
		p.Time = netflow.RoundToNanos(p.Time)
	}
	in.labels = make(map[netflow.FlowKey]traffic.Label, len(s.Labels))
	attacks, v6 := 0, 0
	for k, l := range s.Labels {
		if electV6(k, w.v6) {
			k.IPA, k.IPB = toV6(k.IPA), toV6(k.IPB)
			v6++
		}
		if l != traffic.Benign {
			attacks++
		}
		in.labels[k] = l
	}
	if in.n == 0 {
		return nil, fmt.Errorf("perfbench: workload %s generated no packets", w.name)
	}
	flows := len(in.labels)
	in.shape = shape{
		Packets: in.n, Flows: flows,
		PacketsPerFlow: ratio(float64(in.n), float64(flows)),
		AttackShare:    ratio(float64(attacks), float64(flows)),
		V6Share:        ratio(float64(v6), float64(flows)),
	}
	var err error
	if w.pcap {
		in.img, err = pcapImage(in.packets)
	} else {
		in.img, err = captureImage(in.packets)
	}
	if err != nil {
		return nil, err
	}
	if err := verifyImage(in.img.Bytes(), w.pcap, in.packets); err != nil {
		in.img.release()
		return nil, err
	}
	return in, nil
}

// electV6 decides from the canonical flow key whether a flow moves to
// IPv6: a hash of the 5-tuple below frac of its range. Both directions
// share the key, so a flow never mixes families.
func electV6(k netflow.FlowKey, frac float64) bool {
	if frac <= 0 {
		return false
	}
	h := uint64(0xcbf29ce484222325)
	mix := func(b byte) { h ^= uint64(b); h *= 0x100000001b3 }
	for _, a := range [...]netflow.Addr{k.IPA, k.IPB} {
		for _, b := range a.As16() {
			mix(b)
		}
	}
	mix(byte(k.PortA))
	mix(byte(k.PortA >> 8))
	mix(byte(k.PortB))
	mix(byte(k.PortB >> 8))
	mix(byte(k.Proto))
	return float64(h%(1<<16)) < frac*(1<<16)
}

// toV6 embeds an IPv4 host in the 2001:db8::/32 documentation prefix.
// The embedding preserves the order of any two addresses, so a rewritten
// flow key stays canonical.
func toV6(a netflow.Addr) netflow.Addr {
	b := a.As16()
	var v [16]byte
	v[0], v[1], v[2], v[3] = 0x20, 0x01, 0x0d, 0xb8
	copy(v[12:], b[12:])
	return netflow.AddrFrom16(v)
}

// pcapImage writes packets as a classic nanosecond PCAP whose frames are
// cut to snapLen bytes, as a capture taken with that snap length would be.
func pcapImage(packets []netflow.Packet) (*image, error) {
	img, err := newImage(24 + len(packets)*(16+snapLen))
	if err != nil {
		return nil, err
	}
	if err := netflow.WritePCAP(&snapWriter{w: img, snap: snapLen}, packets); err != nil {
		img.release()
		return nil, fmt.Errorf("perfbench: writing pcap image: %w", err)
	}
	return img, nil
}

// captureImage writes packets in the binary capture format.
func captureImage(packets []netflow.Packet) (*image, error) {
	img, err := newImage(64 + len(packets)*64)
	if err != nil {
		return nil, err
	}
	if err := netflow.WriteCapture(img, packets); err != nil {
		img.release()
		return nil, fmt.Errorf("perfbench: writing capture image: %w", err)
	}
	return img, nil
}

// openImage returns a fresh source over an image and a func reporting
// the frames the decoder skipped.
func openImage(b []byte, pcap bool) (netflow.PacketSource, func() int, error) {
	if pcap {
		s, err := netflow.NewPCAPSource(bytes.NewReader(b))
		if err != nil {
			return nil, nil, err
		}
		return s, s.Skipped, nil
	}
	s, err := netflow.NewCaptureScanner(bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	return s, func() int { return 0 }, nil
}

// verifyImage decodes an image and checks it yields exactly packets, in
// order, with no skipped frame.
func verifyImage(b []byte, pcap bool, packets []netflow.Packet) error {
	src, skipped, err := openImage(b, pcap)
	if err != nil {
		return err
	}
	var p netflow.Packet
	for i := range packets {
		if err := src.Next(&p); err != nil {
			return fmt.Errorf("perfbench: image ends at packet %d of %d: %w", i, len(packets), err)
		}
		if p != packets[i] {
			return fmt.Errorf("perfbench: image packet %d decodes to %+v, generated %+v", i, p, packets[i])
		}
	}
	if err := src.Next(&p); err != io.EOF {
		return fmt.Errorf("perfbench: image holds more than the %d generated packets (%v)", len(packets), err)
	}
	if n := skipped(); n != 0 {
		return fmt.Errorf("perfbench: decoder skipped %d frames of the image", n)
	}
	return nil
}

// snapWriter truncates every frame of the little-endian classic PCAP
// stream written through it to snap bytes, keeping each record's
// original length, and records snap in the global header.
type snapWriter struct {
	w    io.Writer
	snap uint32

	hdr     [24]byte
	have    int  // bytes of the pending header collected so far
	started bool // global header written
	left    int  // frame bytes of the current record still to come
	keep    int  // of which still to copy
}

// Write consumes an arbitrary slice of the PCAP byte stream.
func (s *snapWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.left > 0 {
			k := min(len(p), s.left)
			if c := min(k, s.keep); c > 0 {
				if _, err := s.w.Write(p[:c]); err != nil {
					return 0, err
				}
				s.keep -= c
			}
			s.left -= k
			p = p[k:]
			continue
		}
		want := 16
		if !s.started {
			want = 24
		}
		c := copy(s.hdr[s.have:want], p)
		s.have += c
		p = p[c:]
		if s.have < want {
			continue
		}
		s.have = 0
		if !s.started {
			s.started = true
			binary.LittleEndian.PutUint32(s.hdr[16:], s.snap)
		} else {
			caplen := binary.LittleEndian.Uint32(s.hdr[8:])
			s.left, s.keep = int(caplen), int(min(caplen, s.snap))
			binary.LittleEndian.PutUint32(s.hdr[8:], uint32(s.keep))
		}
		if _, err := s.w.Write(s.hdr[:want]); err != nil {
			return 0, err
		}
	}
	return n, nil
}
