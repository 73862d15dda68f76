package core

import (
	"encoding/binary"
	"fmt"
)

// One frame type and one codec for every wire message the engine sends.
// The paper's comm thread relays a remote message as an MPI payload behind
// a small DCGN header (source rank, destination rank, length); the
// reliability layer and the one-sided lane extend that header with fixed
// fields, so every layout is a prefix of the next:
//
//	[0,24)   i64 src        i64 dst         u64 payload len   every frame
//	[24,40)  u64 seq        u32 kind        u32 flags         sequenced and one-sided frames
//	[40,72)  u32 win        u32 token       i64 offset        one-sided frames
//	         i64 posted-ns  u64 aux
//
// aux carries a get's requested byte count (its request has no payload)
// or an atomic's op. posted-ns is the origin clock at post time and feeds
// the remote-completion histogram: virtual clocks are global on the
// simulated backend, so target minus origin is exact there and
// best-effort on the live backend.
//
// With Config.Flows on, the flow context (trace ID u64, span ID u64)
// follows the header on every frame except the two-sided ack, and the
// payload follows the flow context. Both ends of a job share one Config,
// so the layout is never negotiated: the receiving lane knows which
// prefix to expect, and the kind (absent from the 24-byte frame) tells
// the rest.
const (
	plainHeaderLen = 24 // two-sided message, Reliability off
	seqHeaderLen   = 40 // two-sided data and ack, Reliability on
	osHeaderLen    = 72 // every one-sided frame
	flowCtxLen     = 16 // trace ID + span ID, Config.Flows
)

// wireLane names the header prefix a receiving lane parses.
type wireLane uint8

const (
	lanePlain    wireLane = iota // two-sided, Reliability off
	laneSeq                      // two-sided, Reliability on
	laneOneSided                 // one-sided lane, either setting
	laneNone                     // no lane: an unknown kind
)

// laneHeaderLen is each lane's fixed header length, flow context excluded.
var laneHeaderLen = [...]int{lanePlain: plainHeaderLen, laneSeq: seqHeaderLen, laneOneSided: osHeaderLen}

// frameKind is what a frame asks of its receiver; it also fixes which
// lane carries the frame and so its header length.
type frameKind uint32

const (
	kindMsg  frameKind = iota // two-sided message, Reliability off (not on the wire)
	kindData                  // sequenced two-sided message
	kindAck                   // two-sided ack; src is the acking NODE, never flow context
	// One-sided kinds.
	kindPut      // apply payload into the target window
	kindGetReq   // read aux bytes from the target window, reply with kindGetRep
	kindGetRep   // get reply: payload for the requester's pending token
	kindOSAck    // one-sided ack (reliability); src is the acking NODE
	kindAccum    // element-wise atomic update into the target window (aux = op)
	kindFetchReq // atomic fetch-and-op on one int64 (aux = op, payload = operand)
	kindFetchRep // fetch-and-op reply: prior value for the pending token
)

// flagTrunc marks a get or fetch reply whose payload was clipped to the
// window.
const flagTrunc = 1

// lane reports which lane carries frames of kind k.
func (k frameKind) lane() wireLane {
	switch {
	case k == kindMsg:
		return lanePlain
	case k == kindData || k == kindAck:
		return laneSeq
	case k >= kindPut && k <= kindFetchRep:
		return laneOneSided
	}
	return laneNone
}

// frame is one wire message, parsed or about to be marshalled. Fields a
// kind's lane does not carry stay zero. payload aliases backing, the
// pooled wire buffer, on a received frame; whoever consumes the frame
// returns backing to the job pool.
type frame struct {
	kind     frameKind
	flags    uint32
	win      uint32
	token    uint32
	src, dst int
	offset   int
	seq      uint64
	postedNs int64
	aux      uint64
	// traceID and spanID are the flow context (Config.Flows): the causal
	// flow the frame belongs to and the sending operation's span, which
	// the receiving side parents itself on. Zero with flows off.
	traceID uint64
	spanID  uint64
	payload []byte
	backing []byte
}

// headerLen is the frame's header length: its lane's fixed header plus
// the flow context when flows is on.
func (f *frame) headerLen(flows bool) int {
	n := laneHeaderLen[f.kind.lane()]
	if flows && f.kind != kindAck {
		n += flowCtxLen
	}
	return n
}

// size is the frame's full wire length.
func (f *frame) size(flows bool) int { return f.headerLen(flows) + len(f.payload) }

// marshal writes the frame into buf, which must hold f.size(flows) bytes,
// and returns it trimmed to that length.
func (f *frame) marshal(buf []byte, flows bool) []byte {
	hdr := f.headerLen(flows)
	buf = buf[:hdr+len(f.payload)]
	le := binary.LittleEndian
	le.PutUint64(buf[0:], uint64(int64(f.src)))
	le.PutUint64(buf[8:], uint64(int64(f.dst)))
	le.PutUint64(buf[16:], uint64(len(f.payload)))
	at := plainHeaderLen
	if lane := f.kind.lane(); lane != lanePlain {
		le.PutUint64(buf[24:], f.seq)
		le.PutUint32(buf[32:], uint32(f.kind))
		le.PutUint32(buf[36:], f.flags)
		if lane == laneOneSided {
			le.PutUint32(buf[40:], f.win)
			le.PutUint32(buf[44:], f.token)
			le.PutUint64(buf[48:], uint64(int64(f.offset)))
			le.PutUint64(buf[56:], uint64(f.postedNs))
			le.PutUint64(buf[64:], f.aux)
		}
		at = laneHeaderLen[lane]
	}
	if hdr > at {
		le.PutUint64(buf[at:], f.traceID)
		le.PutUint64(buf[at+8:], f.spanID)
	}
	copy(buf[hdr:], f.payload)
	return buf
}

// pack marshals f into a pooled buffer in the node's layout; the sender
// returns the buffer to the pool once the transport has it.
func (ns *nodeState) pack(f *frame) []byte {
	return f.marshal(ns.job.pool.Get(f.size(ns.flowsOn)), ns.flowsOn)
}

// unmarshal parses one frame received on lane. The frame comes back by
// value, so a receiver that only reads it (an ack) allocates nothing; its
// payload aliases msg, which becomes its backing buffer. A short,
// truncated or foreign-kind message is an error, never a panic: the
// caller drops it and lets the sender's retransmission (if any) repair
// the gap.
func unmarshal(msg []byte, lane wireLane, flows bool) (frame, error) {
	base := laneHeaderLen[lane]
	if len(msg) < base {
		return frame{}, fmt.Errorf("core: short frame (%d bytes, header %d)", len(msg), base)
	}
	le := binary.LittleEndian
	f := frame{
		src:     int(int64(le.Uint64(msg[0:]))),
		dst:     int(int64(le.Uint64(msg[8:]))),
		backing: msg,
	}
	n := le.Uint64(msg[16:])
	if lane != lanePlain {
		f.seq = le.Uint64(msg[24:])
		f.kind = frameKind(le.Uint32(msg[32:]))
		f.flags = le.Uint32(msg[36:])
		if f.kind.lane() != lane {
			return frame{}, fmt.Errorf("core: frame kind %d on the wrong lane", f.kind)
		}
	}
	if lane == laneOneSided {
		f.win = le.Uint32(msg[40:])
		f.token = le.Uint32(msg[44:])
		f.offset = int(int64(le.Uint64(msg[48:])))
		f.postedNs = int64(le.Uint64(msg[56:]))
		f.aux = le.Uint64(msg[64:])
	}
	hdr := f.headerLen(flows)
	if len(msg) < hdr {
		return frame{}, fmt.Errorf("core: short flow frame (%d bytes, header %d)", len(msg), hdr)
	}
	if hdr > base {
		f.traceID = le.Uint64(msg[base:])
		f.spanID = le.Uint64(msg[base+8:])
	}
	// Compare unsigned: a length of 2^63 or more must not wrap negative
	// and slip past the bounds check.
	if n > uint64(len(msg)-hdr) {
		return frame{}, fmt.Errorf("core: frame truncated: header says %d, have %d", n, len(msg)-hdr)
	}
	f.payload = msg[hdr : hdr+int(n)]
	return f, nil
}
