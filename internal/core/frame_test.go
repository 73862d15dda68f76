package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// Tests for the wire codec (frame.go): one table pinning every layout's
// header length, round trip and rejections, focused round-trip and
// rejection tests for the two two-sided lanes, and a fuzz target holding
// unmarshal to "never panics, and what it accepts re-marshals to the
// same bytes".

// frameKinds is every kind, in wire order.
var frameKinds = []frameKind{kindMsg, kindData, kindAck, kindPut, kindGetReq, kindGetRep, kindOSAck, kindAccum, kindFetchReq, kindFetchRep}

// sampleFrame is a frame of kind k with every field its lane carries set
// to a distinct value (acks carry no payload and no flow context).
func sampleFrame(k frameKind) frame {
	f := frame{kind: k, src: 7, dst: 12, payload: pattern(300, 5), traceID: 0xabcd, spanID: 0x1234}
	if k.lane() != lanePlain {
		f.seq = 99
	}
	if k.lane() == laneOneSided {
		f.win, f.token, f.offset, f.postedNs, f.aux = 3, 11, 4096, 123456789, 64
		f.flags = flagTrunc
	}
	if k == kindAck || k == kindOSAck {
		f.src, f.dst, f.payload = 3, 0, nil
		f.seq = 42
	}
	if k == kindAck {
		f.traceID, f.spanID = 0, 0
	}
	return f
}

func marshalled(f frame, flows bool) []byte {
	return f.marshal(make([]byte, f.size(flows)), flows)
}

// setLen overwrites the payload-length field.
func setLen(n uint64) func([]byte) []byte {
	return func(msg []byte) []byte {
		binary.LittleEndian.PutUint64(msg[16:], n)
		return msg
	}
}

func TestFrameLayout(t *testing.T) {
	type row struct {
		name  string
		f     frame
		flows bool
		hdr   int // pinned header length
		// corrupt, when set, mangles the marshalled bytes, which must then
		// be rejected; otherwise the frame must round-trip exactly.
		corrupt func([]byte) []byte
	}
	pinned := map[wireLane][2]int{lanePlain: {24, 40}, laneSeq: {40, 56}, laneOneSided: {72, 88}}
	var rows []row
	for _, k := range frameKinds {
		for i, flows := range []bool{false, true} {
			hdr := pinned[k.lane()][i]
			if k == kindAck {
				hdr = 40 // the two-sided ack never carries flow context
			}
			name := fmt.Sprintf("kind%d/flows=%v", k, flows)
			rows = append(rows,
				row{name: name, f: sampleFrame(k), flows: flows, hdr: hdr},
				row{name: name + "/len-overflow", f: sampleFrame(k), flows: flows, hdr: hdr, corrupt: setLen(1 << 63)},
				row{name: name + "/len-max", f: sampleFrame(k), flows: flows, hdr: hdr, corrupt: setLen(^uint64(0))},
			)
		}
	}
	// The plain lane's short/truncated frames and the sequenced lane's
	// short frame and unknown kind are TestUnpackWireRejectsGarbage and
	// TestRelFrameRoundtrip.
	rows = append(rows,
		row{name: "seq/kind-out-of-range", f: sampleFrame(kindData), hdr: 40, corrupt: func(m []byte) []byte { m[32] = 200; return m }},
		row{name: "seq/flags-in-kind-high-bytes", f: sampleFrame(kindData), hdr: 40, corrupt: func(m []byte) []byte { m[35] = 1; return m }},
		row{name: "onesided/two-sided-kind", f: sampleFrame(kindPut), hdr: 72, corrupt: func(m []byte) []byte { m[32] = byte(kindData); return m }},
		row{name: "onesided/short-flow-header", f: sampleFrame(kindGetReq), flows: true, hdr: 88, corrupt: func(m []byte) []byte { return m[:osHeaderLen+8] }},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			f := r.f
			if got := f.headerLen(r.flows); got != r.hdr {
				t.Fatalf("header length %d, want %d", got, r.hdr)
			}
			msg := marshalled(f, r.flows)
			if len(msg) != r.hdr+len(f.payload) {
				t.Fatalf("wire length %d, want %d", len(msg), r.hdr+len(f.payload))
			}
			lane := f.kind.lane()
			if r.corrupt != nil {
				if got, err := unmarshal(r.corrupt(msg), lane, r.flows); err == nil {
					t.Fatalf("corrupt frame accepted: %+v", got)
				}
				return
			}
			got, err := unmarshal(msg, lane, r.flows)
			if err != nil {
				t.Fatal(err)
			}
			want := f
			if !r.flows || f.kind == kindAck {
				want.traceID, want.spanID = 0, 0
			}
			if !bytes.Equal(got.payload, want.payload) || &got.backing[0] != &msg[0] {
				t.Fatalf("payload %d bytes, want %d aliasing the wire buffer", len(got.payload), len(want.payload))
			}
			got.payload, got.backing, want.payload = nil, nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip:\n got  %+v\n want %+v", got, want)
			}
		})
	}
	// Last row: frames of every kind with arbitrary field values and
	// payloads round-trip in both layouts.
	t.Run("random-roundtrip", func(t *testing.T) {
		prop := func(ki uint8, src, dst int64, seq uint64, win, token uint32, offset, posted int64, aux, traceID, spanID uint64, payload []byte, flows bool) bool {
			k := frameKinds[int(ki)%len(frameKinds)]
			f := frame{kind: k, src: int(src), dst: int(dst), payload: payload, traceID: traceID, spanID: spanID}
			if k.lane() != lanePlain {
				f.seq = seq
			}
			if k.lane() == laneOneSided {
				f.win, f.token, f.offset, f.postedNs, f.aux = win, token, int(offset), posted, aux
			}
			if !flows || k == kindAck {
				f.traceID, f.spanID = 0, 0
			}
			got, err := unmarshal(marshalled(f, flows), k.lane(), flows)
			if err != nil || !bytes.Equal(got.payload, payload) {
				return false
			}
			got.payload, got.backing, f.payload = nil, nil, nil
			return reflect.DeepEqual(got, f)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: the plain two-sided lane round-trips arbitrary payloads and
// rank pairs, in both the legacy and the flows-on layout (where the
// carried flow context must round-trip too).
func TestWireRoundtripProperty(t *testing.T) {
	prop := func(src, dst uint16, payload []byte, flows bool, traceID, spanID uint64) bool {
		f := frame{kind: kindMsg, src: int(src), dst: int(dst), payload: payload, traceID: traceID, spanID: spanID}
		got, err := unmarshal(marshalled(f, flows), lanePlain, flows)
		if err != nil || got.kind != kindMsg || got.src != int(src) || got.dst != int(dst) {
			return false
		}
		if flows && (got.traceID != traceID || got.spanID != spanID) {
			return false
		}
		if !flows && (got.traceID != 0 || got.spanID != 0) {
			return false
		}
		return bytes.Equal(got.payload, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackWireRejectsGarbage(t *testing.T) {
	if _, err := unmarshal([]byte{1, 2, 3}, lanePlain, false); err == nil {
		t.Fatal("short message accepted")
	}
	hello := frame{kind: kindMsg, src: 1, dst: 2, payload: []byte("hello"), traceID: 7, spanID: 9}
	msg := marshalled(hello, false)
	if _, err := unmarshal(msg[:len(msg)-2], lanePlain, false); err == nil {
		t.Fatal("truncated payload accepted")
	}
	flowMsg := marshalled(hello, true)
	if _, err := unmarshal(flowMsg[:plainHeaderLen+4], lanePlain, true); err == nil {
		t.Fatal("short flows header accepted")
	}
}

func TestRelFrameRoundtrip(t *testing.T) {
	payload := pattern(300, 5)
	msg := marshalled(frame{kind: kindData, src: 7, dst: 12, seq: 99, payload: payload}, false)
	got, err := unmarshal(msg, laneSeq, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != kindData || got.src != 7 || got.dst != 12 || got.seq != 99 || !bytes.Equal(got.payload, payload) {
		t.Fatalf("data frame roundtrip: kind=%d src=%d dst=%d seq=%d", got.kind, got.src, got.dst, got.seq)
	}

	ack := marshalled(frame{kind: kindAck, src: 3, seq: 42}, false)
	got, err = unmarshal(ack, laneSeq, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != kindAck || got.src != 3 || got.seq != 42 || len(got.payload) != 0 {
		t.Fatalf("ack frame roundtrip: kind=%d src=%d seq=%d payload=%d", got.kind, got.src, got.seq, len(got.payload))
	}

	if _, err := unmarshal(make([]byte, 10), laneSeq, false); err == nil {
		t.Fatal("short frame unpacked without error")
	}
	bad := marshalled(frame{kind: kindAck}, false)
	bad[32] = 9 // unknown kind
	if _, err := unmarshal(bad, laneSeq, false); err == nil {
		t.Fatal("unknown frame kind unpacked without error")
	}
}

// TestRelFrameRoundtripFlows pins the flows-on data-frame layout (flow
// context after the kind, payload at offset 56) and that acks, which
// never carry context, still parse in the same stream.
func TestRelFrameRoundtripFlows(t *testing.T) {
	payload := pattern(300, 5)
	msg := marshalled(frame{kind: kindData, src: 7, dst: 12, seq: 99, payload: payload, traceID: 0xabcd, spanID: 0x1234}, true)
	if !bytes.Equal(msg[56:], payload) {
		t.Fatalf("flows data frame payload not at offset 56 (frame %d bytes)", len(msg))
	}
	got, err := unmarshal(msg, laneSeq, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != kindData || got.src != 7 || got.dst != 12 || got.seq != 99 || !bytes.Equal(got.payload, payload) {
		t.Fatalf("flows data frame roundtrip: kind=%d src=%d dst=%d seq=%d", got.kind, got.src, got.dst, got.seq)
	}
	if got.traceID != 0xabcd || got.spanID != 0x1234 {
		t.Fatalf("flow context lost: trace=%#x span=%#x", got.traceID, got.spanID)
	}

	ack := marshalled(frame{kind: kindAck, src: 3, seq: 42}, true)
	got, err = unmarshal(ack, laneSeq, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != kindAck || got.src != 3 || got.seq != 42 || len(got.payload) != 0 || got.traceID != 0 || got.spanID != 0 {
		t.Fatalf("ack frame roundtrip under flows: kind=%d src=%d seq=%d payload=%d trace=%#x", got.kind, got.src, got.seq, len(got.payload), got.traceID)
	}
}

func FuzzFrameUnmarshal(f *testing.F) {
	for _, k := range frameKinds {
		for _, flows := range []bool{false, true} {
			f.Add(marshalled(sampleFrame(k), flows), uint8(k.lane()), flows)
		}
	}
	f.Fuzz(func(t *testing.T, msg []byte, lane uint8, flows bool) {
		l := wireLane(lane % uint8(laneNone))
		fr, err := unmarshal(msg, l, flows)
		if err != nil {
			return
		}
		n := fr.size(flows)
		if n > len(msg) {
			t.Fatalf("accepted %d-byte frame from %d bytes", n, len(msg))
		}
		if out := fr.marshal(make([]byte, n), flows); !bytes.Equal(out, msg[:n]) {
			t.Fatalf("re-marshal differs:\n in  %x\n out %x", msg[:n], out)
		}
	})
}
