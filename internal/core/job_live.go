package core

import (
	"fmt"
	"strings"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/transport"
	"dcgn/internal/transport/live"
)

// runLive executes the job on the live backend: the same progress engine
// (intake, matcher, collective accumulator, comm thread) running on real
// goroutines over the in-process goroutine/channel transport, on the wall
// clock. The simulated device model does not exist here, so only CPU
// kernels are supported; GPU jobs use the default simulated backend.
//
// The live backend trades determinism for real concurrency: it is how the
// engine's thread-confinement discipline is exercised under the race
// detector, which the one-goroutine-at-a-time simulator cannot do.
func (j *Job) runLive() (Report, error) {
	if j.hasGPUs() {
		return Report{}, fmt.Errorf("dcgn: live backend supports CPU kernels only (GPUs need the simulated device model)")
	}
	if j.cfg.JitterFrac > 0 {
		return Report{}, fmt.Errorf("dcgn: live backend has no virtual-time jitter model")
	}

	j.pool = bufpool.New()
	cluster := live.New(j.cfg.Nodes, j.pool)
	return j.runLiveEnv(&liveEnv{
		endpoint: func(n int) transport.Transport { return cluster.Node(n) },
		closeTr:  func() { _ = cluster.Close() },
		packets:  cluster.Packets,
		bytes:    cluster.Bytes,
	})
}

// liveEnv abstracts what a live engine run needs from its transport
// substrate: an endpoint per node, a teardown hook, wire totals, and an
// optional external cancellation signal. The single-job path backs it
// with a whole private cluster; a multi-tenant Runtime backs it with one
// tenant group of a shared cluster.
type liveEnv struct {
	endpoint func(n int) transport.Transport
	closeTr  func()
	packets  func() int64
	bytes    func() int64
	// cancel, when non-nil, aborts the run when closed — the Runtime's
	// Cancel control. Teardown is the watchdog path: close the transport
	// and intakes and report what is safely readable.
	cancel <-chan struct{}
}

// runLiveEnv executes the job's progress engine over the given live
// substrate. It owns everything job-scoped — the liveRT, node states,
// kernels, teardown, report — while the substrate (cluster or tenant
// group) is the caller's.
func (j *Job) runLiveEnv(env *liveEnv) (Report, error) {
	rt := newLiveRT()
	j.rt = rt

	j.nodes = nil
	for n := 0; n < j.cfg.Nodes; n++ {
		ns := &nodeState{
			job:    j,
			node:   n,
			rt:     rt,
			tr:     j.wrapTransport(n, env.endpoint(n)),
			intake: newIntake(rt.NewQueue(fmt.Sprintf("commq:%d", n))),
			index:  newMatchIndex(),
		}
		if j.cfg.Reliability.Enabled {
			ns.rel = newSeqLane(ns, ns.tr.Send, kindAck, ns.postWire)
		}
		if j.metrics != nil {
			ns.met = newNodeMetrics(j.metrics)
		}
		ns.obsOn = j.trace != nil || j.metrics != nil
		ns.flowsOn = j.cfg.Flows && j.trace != nil
		ns.coll = newCollAccum(ns)
		if j.cfg.OneSided {
			ns.initOneSided()
		}
		ns.start()
		j.nodes = append(j.nodes, ns)
	}

	if err := j.spawnCPUKernels(); err != nil {
		// Engine daemons are already running; unwind them before returning.
		env.closeTr()
		for _, ns := range j.nodes {
			ns.intake.close()
		}
		rt.daemons.Wait()
		return Report{}, err
	}

	// MaxVirtualTime doubles as the wall-clock watchdog: a deadlocked
	// application (unmatched receive, incomplete collective) would block
	// the kernel WaitGroup forever. An explicit timer (not time.After) so
	// the happy path stops it — with the defaulted 1-hour limit, time.After
	// leaked a live timer for an hour past every successful run.
	workersDone := make(chan struct{})
	go func() {
		rt.workers.Wait()
		close(workersDone)
	}()
	watchdog := time.NewTimer(j.cfg.MaxVirtualTime)
	defer watchdog.Stop()
	var runErr error
	select {
	case <-workersDone:
	case <-watchdog.C:
		runErr = fmt.Errorf("dcgn: live run exceeded %v (deadlocked kernels?)%s",
			j.cfg.MaxVirtualTime, liveStallDiagnosis(j.nodes))
	case <-env.cancel:
		runErr = ErrJobCanceled
	}

	// Teardown: closing the transport unwinds blocked receivers and
	// collective participants; closing the intakes unwinds the comm
	// threads. Quiesce the daemons before reading any engine state.
	env.closeTr()
	for _, ns := range j.nodes {
		ns.intake.close()
	}
	if runErr != nil {
		// Timed out or canceled: kernels (and the daemons completing their
		// requests) may be blocked for good; report what is safely readable.
		return Report{Elapsed: rt.Now()}, runErr
	}
	rt.daemons.Wait()
	// A daemon can spawn one last helper on its way out — an ack for a
	// duplicate frame that arrived after the kernels finished. The helper
	// releases pooled staging the daemon acquired, so wait for workers
	// again (no daemon is left to add more) before snapshotting the pool
	// counters, or the report reads acquires > releases.
	rt.workers.Wait()

	rep := Report{
		Elapsed:    rt.Now(),
		NetPackets: int(env.packets()),
		NetBytes:   env.bytes(),
	}
	j.fillReport(&rep)
	return rep, nil
}

// liveStallDiagnosis summarizes, per node, what the intake layer still had
// in flight when the watchdog fired — the first thing a deadlock
// post-mortem wants to know. It reads only the intake atomics: matcher and
// collective state are comm-thread-confined and those daemons are still
// running when this is called.
func liveStallDiagnosis(nodes []*nodeState) string {
	var b strings.Builder
	for _, ns := range nodes {
		if ns == nil {
			continue
		}
		d := ns.intake.depth()
		fmt.Fprintf(&b, "; node %d: %d inflight intake events (%d local posts, %d wire posts)",
			ns.node, d, ns.intake.localPosts.Load(), ns.intake.wirePosts.Load())
	}
	return b.String()
}
