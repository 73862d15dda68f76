package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcgn/internal/transport"
)

// spanName identifies a span boundary. Every span is recorded by this
// benchmark's own code around a call into one layer; nothing inside the
// program is instrumented.
type spanName uint8

const (
	spJob       spanName = iota // one measured job, or one serve-live arrival from due time to completion
	spApp                       // one apps.* call inside a gpu-apps round
	spCoreSend                  // CPUCtx.Send in the benchmark's kernel
	spCoreRecv                  // CPUCtx.Recv in the benchmark's kernel
	spTrSend                    // transport.Transport.Send
	spTrRecvMsg                 // transport.Transport.RecvMsg (a wait, not busy time)
	// The transport collectives, Barrier through Alltoallv (isColl), then
	// Close.
	spTrBarrier
	spTrBcast
	spTrGatherv
	spTrScatterv
	spTrAlltoallv
	spTrClose
	spSubmit // core.Runtime.Submit
)

var spanNames = [...]string{
	"job", "apps", "core.send", "core.recv",
	"transport.send", "transport.recvmsg", "transport.barrier", "transport.bcast",
	"transport.gatherv", "transport.scatterv", "transport.alltoallv", "transport.close",
	"core.submit",
}

// level orders the busy span kinds from the job down; a layer's self time
// is the part of the job where it is the deepest layer with a span open.
// RecvMsg is a wait (the receiver helper sits in it for the whole job), so
// it has no level and is reported as recv_wait_ms instead.
func (n spanName) level() int {
	switch n {
	case spJob:
		return 0
	case spApp, spSubmit:
		return 1
	case spCoreSend, spCoreRecv:
		return 2
	case spTrRecvMsg:
		return -1
	}
	return 3
}

func (n spanName) isColl() bool { return n >= spTrBarrier && n <= spTrAlltoallv }

// span is one recorded interval, in nanoseconds since the recorder's epoch.
type span struct {
	id, parent int32 // parent is -1 for a job span
	job        int32 // the job's sequence number in the run
	name       spanName
	start, end int64
}

// recorder keeps the spans of a traced run in memory; they are written out
// once the run ends. It is safe for concurrent use: the sharded and live
// workloads record from several goroutines.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// cur is the span new leaf spans hang under (the open job or apps
	// call), and curJob its job number. Only the closed-loop workloads use
	// them, and those run one job at a time.
	cur    atomic.Int32
	curJob atomic.Int32
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.cur.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span that later closes with end.
func (r *recorder) open(name spanName, parent, job int32) int32 {
	start := r.now()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{id: id, parent: parent, job: job, name: name, start: start, end: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// add records a finished span.
func (r *recorder) add(name spanName, parent, job int32, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{id: int32(len(r.spans)), parent: parent, job: job, name: name, start: start, end: end})
	r.mu.Unlock()
}

// leaf records a finished span under the current parent.
func (r *recorder) leaf(name spanName, start int64) {
	r.add(name, r.cur.Load(), r.curJob.Load(), start, r.now())
}

// beginJob opens job number job's span and makes it the current parent.
func (r *recorder) beginJob(job int32) int32 {
	id := r.open(spJob, -1, job)
	r.curJob.Store(job)
	r.cur.Store(id)
	return id
}

// within runs fn under a child span of the current parent.
func (r *recorder) within(name spanName, fn func()) {
	parent := r.cur.Load()
	id := r.open(name, parent, r.curJob.Load())
	r.cur.Store(id)
	fn()
	r.cur.Store(parent)
	r.end(id)
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as gzipped CSV.
func writeSpans(w io.Writer, spans []span) error {
	zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,job,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.job, spanNames[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// selfTimes splits one job span's wall time between the levels of its
// busy descendants: each instant goes to the deepest level with a span
// open, and instants no child covers are unattributed (level 0). The
// parts sum to the job's wall time. It reports an error for a busy child
// outside the job span, which would make that sum meaningless.
func selfTimes(job span, children []span) ([4]int64, error) {
	type edge struct {
		t     int64
		level int
		delta int
	}
	var edges []edge
	for _, c := range children {
		lv := c.name.level()
		if lv <= 0 {
			continue
		}
		if c.end < c.start || c.start < job.start || c.end > job.end {
			return [4]int64{}, fmt.Errorf("span %s [%d,%d] lies outside its job [%d,%d]",
				spanNames[c.name], c.start, c.end, job.start, job.end)
		}
		edges = append(edges, edge{c.start, lv, +1}, edge{c.end, lv, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	var out [4]int64
	var open [4]int
	prev := job.start
	for _, e := range edges {
		out[deepest(open)] += e.t - prev
		prev = e.t
		open[e.level] += e.delta
	}
	out[deepest(open)] += job.end - prev
	return out, nil
}

func deepest(open [4]int) int {
	for lv := 3; lv > 0; lv-- {
		if open[lv] > 0 {
			return lv
		}
	}
	return 0
}

// tracedTransport records a span around every Transport method; it is
// installed with core.Config.WrapTransport in the traced run only.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
}

func (t *tracedTransport) Send(p transport.Proc, dstNode int, msg []byte) error {
	s := t.rec.now()
	err := t.inner.Send(p, dstNode, msg)
	t.rec.leaf(spTrSend, s)
	return err
}

func (t *tracedTransport) RecvMsg(p transport.Proc) ([]byte, error) {
	s := t.rec.now()
	msg, err := t.inner.RecvMsg(p)
	t.rec.leaf(spTrRecvMsg, s)
	return msg, err
}

func (t *tracedTransport) Barrier(p transport.Proc) error {
	s := t.rec.now()
	err := t.inner.Barrier(p)
	t.rec.leaf(spTrBarrier, s)
	return err
}

func (t *tracedTransport) Bcast(p transport.Proc, buf []byte, rootNode int) error {
	s := t.rec.now()
	err := t.inner.Bcast(p, buf, rootNode)
	t.rec.leaf(spTrBcast, s)
	return err
}

func (t *tracedTransport) Gatherv(p transport.Proc, sendBuf, recvBuf []byte, counts []int, rootNode int) error {
	s := t.rec.now()
	err := t.inner.Gatherv(p, sendBuf, recvBuf, counts, rootNode)
	t.rec.leaf(spTrGatherv, s)
	return err
}

func (t *tracedTransport) Scatterv(p transport.Proc, sendBuf []byte, counts []int, recvBuf []byte, rootNode int) error {
	s := t.rec.now()
	err := t.inner.Scatterv(p, sendBuf, counts, recvBuf, rootNode)
	t.rec.leaf(spTrScatterv, s)
	return err
}

func (t *tracedTransport) Alltoallv(p transport.Proc, sendBuf []byte, sendCounts []int, recvBuf []byte, recvCounts []int) error {
	s := t.rec.now()
	err := t.inner.Alltoallv(p, sendBuf, sendCounts, recvBuf, recvCounts)
	t.rec.leaf(spTrAlltoallv, s)
	return err
}

func (t *tracedTransport) Close() error {
	s := t.rec.now()
	err := t.inner.Close()
	t.rec.leaf(spTrClose, s)
	return err
}
