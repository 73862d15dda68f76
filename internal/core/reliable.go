package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcgn/internal/transport"
)

// Wire-level reliability (Config.Reliability): every inter-node frame
// carries a per-(sender node, receiver node) sequence number, receivers
// acknowledge every data frame and resequence out-of-order arrivals, and
// senders retransmit on ack timeout with capped exponential backoff. The
// result is that a lossy transport (internal/transport/faults) degrades
// throughput instead of deadlocking a receive forever, while DCGN's
// FIFO-per-(source, destination) matching semantics survive drops,
// duplicates and reordering unchanged.
//
// One seqLane type runs this machinery, and each wire lane gets its own
// instance: the two-sided lane (nodeState.rel) and the one-sided lane
// (osState.rel). The two sequence spaces stay separate, so numbering the
// lanes jointly can never couple their FIFOs or reintroduce the
// comm-thread serialization the one-sided lane exists to avoid.

// ErrUnacked is reported by a send whose wire frame was never acknowledged
// within Reliability.MaxRetries retransmissions — the reliability layer's
// "the peer is unreachable" verdict.
var ErrUnacked = errors.New("dcgn: send unacknowledged after retries")

// relKey identifies one in-flight frame: the peer node and the sequence
// number on that node pair.
type relKey struct {
	node int
	seq  uint64
}

// relWaiter is a sender-side record of an unacknowledged frame. ev is the
// completion the sending proc currently waits on (re-created per retry);
// the ack path and the retransmit timer both fire it, and acked — read and
// written only under seqLane.mu — disambiguates which happened.
type relWaiter struct {
	ev    completion
	acked bool
}

// seqLane is one lane's seq/ack state on one node. Ownership is split by
// thread, mirroring the engine's confinement rules:
//
//   - nextTx is guarded by txMu: the two-sided lane assigns sequence
//     numbers on the comm thread, but one-sided frames are posted by CPU
//     kernels, persistent puts and the NIC daemons alike;
//   - nextRx and held are touched only by the lane's receiving daemon;
//   - waiters is shared between sending procs, the ack path and timers,
//     guarded by mu. No lock is ever held across a blocking operation — on
//     the simulated backend a proc parking with a sync.Mutex held would
//     wedge the cooperative scheduler (completion.Fire does not block;
//     Wait does and is always called unlocked).
type seqLane struct {
	ns *nodeState
	// send is the lane's transport send; ackKind the kind its acks carry.
	send    func(p transport.Proc, dstNode int, msg []byte) error
	ackKind frameKind
	// what names the lane in errors; waitName and ackName label its
	// waiter events and ack helpers.
	what, waitName, ackName string

	txMu   sync.Mutex
	nextTx []uint64 // per dst node: next sequence to assign

	mu      sync.Mutex
	waiters map[relKey]*relWaiter

	nextRx  []uint64                    // per src node: next sequence to deliver
	held    []map[uint64]*frame         // per src node: out-of-order frames parked
	deliver func(transport.Proc, frame) // hands one in-order frame on

	retransmits  int64
	dupFrames    int64
	acksSent     int64
	acksReceived int64
}

// newSeqLane builds one lane's seq/ack state on node ns.
func newSeqLane(ns *nodeState, send func(transport.Proc, int, []byte) error, ackKind frameKind, deliver func(transport.Proc, frame)) *seqLane {
	nodes := ns.job.cfg.Nodes
	held := make([]map[uint64]*frame, nodes)
	for i := range held {
		held[i] = make(map[uint64]*frame)
	}
	l := &seqLane{
		ns: ns, send: send, ackKind: ackKind, deliver: deliver,
		what: "seq", waitName: "rel-wait", ackName: "dcgn-ack",
		nextTx:  make([]uint64, nodes),
		waiters: make(map[relKey]*relWaiter),
		nextRx:  make([]uint64, nodes),
		held:    held,
	}
	if ackKind == kindOSAck {
		l.what, l.waitName, l.ackName = "one-sided seq", "os-wait", "os-ack"
	}
	return l
}

// assign returns the next sequence number toward dstNode.
func (l *seqLane) assign(dstNode int) uint64 {
	l.txMu.Lock()
	seq := l.nextTx[dstNode]
	l.nextTx[dstNode]++
	l.txMu.Unlock()
	return seq
}

// ackArrived resolves the waiter for (peerNode, seq), waking its sender.
// Late or duplicate acks (waiter already gone or resolved) are no-ops.
func (l *seqLane) ackArrived(peerNode int, seq uint64) {
	l.mu.Lock()
	if w, ok := l.waiters[relKey{peerNode, seq}]; ok && !w.acked {
		w.acked = true
		w.ev.Fire()
	}
	l.mu.Unlock()
}

// relBackoff returns the ack timeout for the given attempt number:
// AckTimeout doubled per retry, capped at BackoffCap.
func relBackoff(r Reliability, attempt int) time.Duration {
	d := r.AckTimeout
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= r.BackoffCap {
			return r.BackoffCap
		}
	}
	if d > r.BackoffCap {
		return r.BackoffCap
	}
	return d
}

// sendAwait transmits msg (sequence seq) to dstNode on the calling proc
// and retransmits on ack timeout until it is acknowledged, the retry
// budget is spent, or the transport fails hard. The retransmit timer is
// armed only after the send returns, so a rendezvous transfer never eats
// into its own ack timeout. req, when non-nil, is the two-sided request
// the frame carries; it gets the wire-sent and acked stamps.
func (l *seqLane) sendAwait(h transport.Proc, req *request, dstNode int, seq uint64, msg []byte) error {
	ns := l.ns
	cfg := ns.job.cfg.Reliability
	key := relKey{dstNode, seq}
	w := &relWaiter{ev: ns.rt.NewEventID(l.waitName, int(seq))}
	l.mu.Lock()
	l.waiters[key] = w
	l.mu.Unlock()

	var err error
	for attempt := 0; ; attempt++ {
		if sendErr := l.send(h, dstNode, msg); sendErr != nil {
			err = sendErr
			break
		}
		if req != nil && ns.obsOn && req.wireSentAt == 0 {
			req.wireSentAt = h.Now()
		}
		l.mu.Lock()
		if w.acked {
			l.mu.Unlock()
			break
		}
		ev := w.ev
		l.mu.Unlock()
		cancel := ns.rt.After(relBackoff(cfg, attempt), ev.Fire)
		ev.Wait(h)
		cancel()
		l.mu.Lock()
		if w.acked {
			l.mu.Unlock()
			break
		}
		if attempt >= cfg.MaxRetries {
			l.mu.Unlock()
			err = fmt.Errorf("dcgn: node %d %s %d to node %d: %w", ns.node, l.what, seq, dstNode, ErrUnacked)
			break
		}
		// Timed out: re-arm with a fresh completion (the old one is spent)
		// and go around for a retransmission.
		w.ev = ns.rt.NewEventID(l.waitName, int(seq))
		l.mu.Unlock()
		atomic.AddInt64(&l.retransmits, 1)
		if ns.met != nil {
			ns.met.backoff.Observe(int64(relBackoff(cfg, attempt)))
		}
	}
	if req != nil && ns.obsOn && err == nil {
		// The only clean exit from the loop is an acknowledged frame.
		req.ackedAt = h.Now()
	}
	l.mu.Lock()
	delete(l.waiters, key)
	l.mu.Unlock()
	return err
}

// sendAck acknowledges seq to peerNode from a spawned helper so the
// receiving daemon never blocks in a transport send (two receivers
// synchronously acking into each other's full inbound queues would
// deadlock). The helper is a worker, not a daemon: the run stays alive
// until the ack is out and its buffer is back in the pool.
func (l *seqLane) sendAck(peerNode int, seq uint64) {
	ns := l.ns
	ack := ns.pack(&frame{kind: l.ackKind, src: ns.node, seq: seq})
	atomic.AddInt64(&l.acksSent, 1)
	ns.rt.SpawnID(l.ackName, ns.node, func(h transport.Proc) {
		// Best-effort: a dropped or post-close ack is recovered by the
		// sender's retransmission, which we will re-ack.
		_ = l.send(h, peerNode, ack)
		ns.job.pool.Put(ack)
	})
}

// recv dispatches one sequenced frame inside the lane's receiving daemon.
// Data frames are always (re-)acknowledged — the previous ack may itself
// have been the frame the fabric dropped — then deduplicated and
// resequenced, so the consumer observes per-node-pair FIFO delivery no
// matter what order the wire produced.
func (l *seqLane) recv(p transport.Proc, f frame) {
	pool := l.ns.job.pool
	if f.kind == l.ackKind {
		atomic.AddInt64(&l.acksReceived, 1)
		l.ackArrived(f.src, f.seq)
		pool.Put(f.backing)
		return
	}
	srcNode := l.ns.job.rmap.Node(f.src)
	l.sendAck(srcNode, f.seq)
	switch {
	case f.seq < l.nextRx[srcNode]:
		// Already delivered: a retransmission whose ack was lost.
		atomic.AddInt64(&l.dupFrames, 1)
		pool.Put(f.backing)
	case f.seq == l.nextRx[srcNode]:
		l.deliver(p, f)
		l.nextRx[srcNode]++
		for {
			next, ok := l.held[srcNode][l.nextRx[srcNode]]
			if !ok {
				break
			}
			delete(l.held[srcNode], l.nextRx[srcNode])
			l.deliver(p, *next)
			l.nextRx[srcNode]++
		}
	default:
		// Ahead of the cursor: park it until the gap fills (the sender
		// retransmits the missing frame until we ack it, so it will).
		if _, dup := l.held[srcNode][f.seq]; dup {
			atomic.AddInt64(&l.dupFrames, 1)
			pool.Put(f.backing)
		} else {
			parked := f
			l.held[srcNode][f.seq] = &parked
		}
	}
}

// releaseHeld returns parked out-of-order frames to the pool; called when
// the receiving daemon unwinds on a closed transport (live teardown can
// close the wire with unfilled gaps still parked).
func (l *seqLane) releaseHeld() {
	for _, m := range l.held {
		for seq, f := range m {
			l.ns.job.pool.Put(f.backing)
			delete(m, seq)
		}
	}
}

// addStats folds the lane's counters into one node's stats.
func (l *seqLane) addStats(st *NodeStats) {
	st.Retransmits += atomic.LoadInt64(&l.retransmits)
	st.DupWireFrames += atomic.LoadInt64(&l.dupFrames)
	st.AcksSent += atomic.LoadInt64(&l.acksSent)
	st.AcksReceived += atomic.LoadInt64(&l.acksReceived)
}
