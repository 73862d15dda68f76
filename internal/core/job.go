package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/device"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/obs"
	"dcgn/internal/obs/flow"
	"dcgn/internal/pcie"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
	"dcgn/internal/transport/simmpi"
)

// Job is one DCGN application run: a cluster configuration plus the CPU
// and GPU kernels to execute on it. Kernels are the computing primitive
// (paper §3.2): DCGN launches them and services their communication; no
// explicit GPU management is needed from the developer.
type Job struct {
	cfg  Config
	rmap RankMap

	// rt is the execution substrate: the deterministic simulator (runSim)
	// or goroutines on the wall clock (runLive).
	rt    rt
	sim   *sim.Sim // non-nil only on the simulated backend
	net   *fabric.Network
	world *mpi.World
	nodes []*nodeState

	// pool recycles every host-side staging buffer the run creates — GPU
	// payload staging, wire pack/unpack, collective scratch, and (shared
	// via mpi.Config.Pool) the MPI layer's envelope staging. Buffer reuse
	// is host-side only and never observable in virtual time.
	pool *bufpool.Pool

	// trFactory, when set, supplies each node's raw transport endpoint in
	// place of the default world-wide simulated-MPI endpoint. A multi-tenant
	// Runtime installs it to hand every node a tenant-scoped endpoint
	// (private tag band, group collectives) over the shared world; nil — the
	// single-job path — keeps the legacy endpoint, bit-identically.
	trFactory func(node int) transport.Transport

	cpuKernel func(*CPUCtx)

	// trace collects lifecycle spans (Config.Trace); metrics is the
	// job-wide instrument registry (Config.Metrics). Both nil when off.
	trace   *traceSink
	metrics *obs.Registry

	// debug is the live-inspection HTTP endpoint (Config.DebugAddr); see
	// debug.go.
	debug debugServer

	// flowEpoch is the start of the critical-path analysis window: the
	// job's admission instant on a multi-tenant runtime (whose simulated
	// clock is shared across jobs), zero for exclusive and live runs
	// (job-local clocks).
	flowEpoch time.Duration

	gpuGrid     int
	gpuBlockDim int
	gpuSetup    func(*GPUSetup)
	gpuKernel   func(*GPUCtx)
	gpuTeardown func(*GPUSetup)
}

// GPUSetup is the host-side context handed to the GPU setup and teardown
// callbacks: it is where applications allocate device buffers and upload
// inputs before the kernel launches, and read results back afterwards —
// "CUDA kernels are not capable of managing GPU memory; this must be
// handled by the CPU" (paper §2.1).
type GPUSetup struct {
	Job  *Job
	Node int
	GPU  int // device index within the node
	Dev  *device.Device
	Bus  *pcie.Bus
	Proc *sim.Proc
	// Args is published to the kernel via GPUCtx.Arg.
	Args map[string]any
}

// Ranks returns the virtual ranks of this device's slots.
func (gs *GPUSetup) Ranks() []int {
	rm := gs.Job.rmap
	out := make([]int, rm.Spec(gs.Node).SlotsPerGPU)
	for s := range out {
		out[s] = rm.GPURank(gs.Node, gs.GPU, s)
	}
	return out
}

// RegisterWindow exposes n bytes of device memory at ptr as slot's rank's
// one-sided window id (Config.OneSided): peers Put into it over the PCIe
// payload path without any mailbox transaction on this device. Setup runs
// before kernels launch, so windows registered here are visible before
// any traffic.
func (gs *GPUSetup) RegisterWindow(slot, id int, ptr device.Ptr, n int) {
	ns := gs.Job.nodes[gs.Node]
	rank := gs.Job.rmap.GPURank(gs.Node, gs.GPU, slot)
	ns.registerWindow(&osWindow{key: osWinKey{rank, id}, gt: ns.gpus[gs.GPU], ptr: ptr, size: n})
}

// RegisterTrigger registers a persistent triggered put on this device
// (Config.OneSided): n bytes of device memory at ptr into window winID of
// rank dst at offset, on behalf of srcSlot's rank. The returned id is
// fired from the kernel with GPUCtx.TriggerStart — register once, fire
// many times, with no descriptor transfer on any fire.
func (gs *GPUSetup) RegisterTrigger(srcSlot, dst, winID, offset int, ptr device.Ptr, n int) int {
	gt := gs.Job.nodes[gs.Node].gpus[gs.GPU]
	if gt.trigQ == nil {
		panic(osErrNotEnabled)
	}
	gt.persist = append(gt.persist, &osPersist{
		srcRank: gs.Job.rmap.GPURank(gs.Node, gs.GPU, srcSlot),
		dstRank: dst, winID: winID, offset: offset, ptr: ptr, size: n,
	})
	return len(gt.persist) - 1
}

// NewJob creates a job for the given cluster configuration.
func NewJob(cfg Config) *Job {
	cfg.validate()
	return &Job{cfg: cfg, rmap: NewRankMap(cfg.nodeSpecs())}
}

// Config returns the job configuration.
func (j *Job) Config() Config { return j.cfg }

// Ranks returns the job's rank map.
func (j *Job) Ranks() RankMap { return j.rmap }

// hasCPUs reports whether any node contributes CPU-kernel threads.
func (j *Job) hasCPUs() bool {
	for n := 0; n < j.rmap.Nodes(); n++ {
		if j.rmap.Spec(n).CPUKernels > 0 {
			return true
		}
	}
	return false
}

// hasGPUs reports whether any node contributes devices.
func (j *Job) hasGPUs() bool {
	for n := 0; n < j.rmap.Nodes(); n++ {
		if j.rmap.Spec(n).GPUs > 0 {
			return true
		}
	}
	return false
}

// SetCPUKernel installs the kernel run by every CPU-kernel thread.
func (j *Job) SetCPUKernel(fn func(*CPUCtx)) { j.cpuKernel = fn }

// SetGPUKernel installs the kernel launched on every device, with the
// given grid geometry.
func (j *Job) SetGPUKernel(grid, blockDim int, fn func(*GPUCtx)) {
	if grid <= 0 || blockDim <= 0 {
		panic("core: invalid GPU kernel geometry")
	}
	j.gpuGrid, j.gpuBlockDim, j.gpuKernel = grid, blockDim, fn
}

// SetGPUSetup installs the host-side callback run on each device before
// its kernel launches (buffer allocation, input upload).
func (j *Job) SetGPUSetup(fn func(*GPUSetup)) { j.gpuSetup = fn }

// SetGPUTeardown installs the host-side callback run on each device after
// its kernel grid retires (result download, verification).
func (j *Job) SetGPUTeardown(fn func(*GPUSetup)) { j.gpuTeardown = fn }

// Report summarizes a completed run.
type Report struct {
	// Elapsed is the virtual wall-clock time of the whole job.
	Elapsed time.Duration
	// NetPackets / NetBytes count inter-node traffic.
	NetPackets int
	NetBytes   int64
	// BusTransfers / BusCtlOps aggregate PCIe activity over all nodes.
	BusTransfers int
	BusCtlOps    int
	// Polls / PollHits aggregate GPU-monitor polling activity; their ratio
	// is the polling efficiency the paper's §3.2.3 trade-off discussion is
	// about.
	Polls    int
	PollHits int
	// Requests counts messages handled by all comm threads.
	Requests int
	// PeakPending is the high-water mark of any node's matching index
	// (pending sends + receives + unexpected inbound messages).
	PeakPending int
	// PoolAcquires / PoolReleases count staging-buffer pool traffic across
	// the whole run (core and MPI layers share one pool). A clean run
	// releases every acquired buffer: PoolAcquires == PoolReleases.
	PoolAcquires uint64
	PoolReleases uint64
	// PoolHits counts acquires served by reuse rather than allocation.
	PoolHits uint64
	// Retransmits / DupWireFrames / AcksSent / AcksReceived aggregate the
	// reliability layer's activity (reliable.go) over all nodes; all zero
	// when Reliability is off. Nonzero Retransmits on a faulted run is the
	// proof the engine survived loss rather than never seeing any.
	Retransmits   int64
	DupWireFrames int64
	AcksSent      int64
	AcksReceived  int64
	// CollRetries counts node-level collective calls re-executed after a
	// transient transport failure, summed over all nodes.
	CollRetries int64
	// OneSidedPuts / OneSidedGets count origin-side Put/Get operations and
	// TriggeredOps counts NIC-fired device descriptors over all nodes
	// (Config.OneSided); OneSidedTruncated counts target-side clipped
	// applies. All zero when the lane is off.
	OneSidedPuts      int64
	OneSidedGets      int64
	TriggeredOps      int64
	OneSidedTruncated int64
	// FaultsInjected totals the fault-injection middleware's activity over
	// all nodes (zero without Config.Faults).
	FaultsInjected transport.FaultStats
	// Nodes holds per-node progress-engine statistics, indexed by node.
	Nodes []NodeStats
	// Trace holds per-request lifecycle spans when Config.Trace is on,
	// merged from the per-node rings (completion order within a node).
	Trace []TraceRecord
	// TraceDropped counts spans overwritten in the fixed-size per-node
	// rings; nonzero means Trace is a truncated (most-recent) window.
	TraceDropped uint64
	// CriticalPath is the job's critical path over its elapsed window when
	// Config.Flows is on (internal/obs/flow): the chain of spans and
	// compute gaps tiling the window exactly, so its per-phase totals sum
	// to Elapsed.
	CriticalPath flow.Path
	// Counters / Gauges / Histograms snapshot the metrics registry when
	// Config.Metrics is on: flat instrument names ("match_wait_ns/op=send/
	// src=cpu/size=<2KiB") to final values. Histogram quantiles come from
	// HistogramSnapshot.Quantile.
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// HistogramSnapshot is an immutable log2-bucketed distribution from the
// metrics registry (= obs.HistogramSnapshot), carrying count, sum and
// per-bucket counts with Mean and Quantile accessors.
type HistogramSnapshot = obs.HistogramSnapshot

// NodeStats is one node's progress-engine activity, layer by layer.
type NodeStats struct {
	Node int
	// RequestsHandled counts events the node's comm thread dispatched.
	RequestsHandled int
	// LocalRequests / WireMessages split the intake stream by source:
	// requests posted by resident kernels (CPU and GPU) vs. inbound wire
	// messages funneled in by the receiver.
	LocalRequests int64
	WireMessages  int64
	// PeakIntakeDepth is the high-water mark of the intake queue (events
	// waiting for the comm thread).
	PeakIntakeDepth int
	// PeakPending is the high-water mark of the matching index (pending
	// sends + receives + unexpected inbound messages).
	PeakPending int
	// Retransmits / DupWireFrames / AcksSent / AcksReceived are this node's
	// reliability-layer counters: data frames resent after an ack timeout,
	// duplicate frames discarded by the receiver, and acks sent/received.
	Retransmits   int64
	DupWireFrames int64
	AcksSent      int64
	AcksReceived  int64
	// CollRetries counts this node's collective re-executions after
	// transient transport failures.
	CollRetries int64
	// OneSidedPuts / OneSidedGets / TriggeredOps are this node's
	// origin-side one-sided activity (Config.OneSided).
	OneSidedPuts int64
	OneSidedGets int64
	TriggeredOps int64
	// Faults snapshots the faults injected into this node's transport
	// (zero unless Config.Faults is active).
	Faults transport.FaultStats
}

// Run executes the job to completion and reports results on the
// configured backend: virtual time on the default simulated transport,
// wall-clock time on the live goroutine transport.
func (j *Job) Run() (Report, error) {
	if err := j.cfg.shardError(); err != nil {
		return Report{}, err
	}
	if j.cpuKernel == nil && j.gpuKernel == nil {
		return Report{}, fmt.Errorf("dcgn: no kernels installed")
	}
	if j.cfg.Trace {
		j.trace = newTraceSink(j.cfg.Nodes, j.rmap.Total(), j.cfg.TraceCap, j.cfg.Flows)
	}
	if j.cfg.Metrics {
		j.metrics = obs.NewRegistry()
	}
	if err := j.startDebugServer(); err != nil {
		return Report{}, err
	}
	defer j.stopDebugServer()
	return runExclusive(j)
}

// runSim executes the job on the simulated backend and reports
// virtual-time results.
func (j *Job) runSim() (Report, error) {
	s := sim.New()
	if j.cfg.JitterFrac > 0 || j.cfg.JitterSeed != 0 {
		s.SetJitter(j.cfg.JitterFrac, j.cfg.JitterSeed)
	}
	s.SetMaxTime(j.cfg.MaxVirtualTime)
	j.sim = s
	j.rt = simRT{s: s}
	j.net = fabric.New(s, j.cfg.Nodes, j.cfg.Net)
	j.pool = bufpool.New()
	nodeOf := make([]int, j.cfg.Nodes) // one underlying MPI rank per node
	for i := range nodeOf {
		nodeOf[i] = i
	}
	mpiCfg := j.cfg.MPI
	mpiCfg.Pool = j.pool // one pool across layers, so leak accounting is exact
	j.world = mpi.NewWorld(s, j.net, nodeOf, mpiCfg)

	j.nodes = nil
	for n := 0; n < j.cfg.Nodes; n++ {
		j.nodes = append(j.nodes, j.buildSimNode(n, s, j.rt))
	}

	// CPU-kernel threads.
	if err := j.spawnCPUKernels(); err != nil {
		return Report{}, err
	}

	// GPU-kernel threads: setup, launch, wait, teardown.
	if err := j.spawnGPUKernels(); err != nil {
		return Report{}, err
	}

	err := s.Run()
	rep := Report{Elapsed: s.Now(), NetPackets: j.net.PacketsSent, NetBytes: j.net.BytesSent}
	j.fillReport(&rep)
	return rep, err
}

// buildSimNode constructs and starts one node's progress engine on the
// given simulator (the job-wide one, or the owning shard's in a sharded
// run). The world must already exist.
func (j *Job) buildSimNode(n int, s *sim.Sim, rtv rt) *nodeState {
	raw := func() transport.Transport {
		if j.trFactory != nil {
			return j.trFactory(n)
		}
		return simmpi.New(j.world.Rank(n))
	}()
	ns := &nodeState{
		job:    j,
		node:   n,
		rt:     rtv,
		sim:    s,
		tr:     j.wrapTransport(n, raw),
		bus:    pcie.New(s, fmt.Sprintf("n%d", n), j.cfg.Bus),
		intake: newIntake(rtv.NewQueue(fmt.Sprintf("commq:%d", n))),
		index:  newMatchIndex(),
	}
	if j.cfg.Reliability.Enabled {
		ns.rel = newRelState(j.cfg.Nodes)
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
	for g := 0; g < j.rmap.Spec(n).GPUs; g++ {
		devCfg := j.cfg.Device
		devCfg.Name = fmt.Sprintf("gpu%d.%d", n, g)
		dev := device.New(s, devCfg)
		ns.devs = append(ns.devs, dev)
		ns.gpus = append(ns.gpus, newGPUThread(ns, g, dev))
	}
	ns.start()
	for _, gt := range ns.gpus {
		gt.startMonitor()
		if gt.trigQ != nil {
			gt.startNIC()
		}
	}
	return ns
}

// spawnGPUKernels starts the per-device setup/launch/wait/teardown threads
// on each node's own simulator.
func (j *Job) spawnGPUKernels() error {
	if j.gpuKernel == nil {
		if j.hasGPUs() && j.cpuKernel == nil {
			return fmt.Errorf("dcgn: GPUs requested but no GPU kernel installed")
		}
		return nil
	}
	for n := 0; n < j.cfg.Nodes; n++ {
		for g := 0; g < j.rmap.Spec(n).GPUs; g++ {
			ns := j.nodes[n]
			gt := ns.gpus[g]
			// Spawn through the node's rt (a 1:1 veneer over the simulator
			// for a single job) so a multi-tenant runtime's per-job proc
			// accounting sees GPU kernels too.
			ns.rt.Spawn(fmt.Sprintf("gpu-kern:%d.%d", n, g), func(tp transport.Proc) {
				p := tp.(*sim.Proc)
				setup := &GPUSetup{Job: j, Node: ns.node, GPU: gt.index, Dev: gt.dev, Bus: ns.bus, Proc: p, Args: map[string]any{}}
				if j.gpuSetup != nil {
					j.gpuSetup(setup)
				}
				l := gt.dev.Launch(p, j.gpuGrid, j.gpuBlockDim, func(b *device.Block) {
					j.gpuKernel(&GPUCtx{b: b, gt: gt, args: setup.Args})
				})
				l.Wait(p)
				if j.gpuTeardown != nil {
					setup.Proc = p
					j.gpuTeardown(setup)
				}
			})
		}
	}
	return nil
}

// wrapTransport layers the configured middlewares over a node's raw
// endpoint: the Config.WrapTransport hook first, then Config.Faults
// outermost — faults perturb the fully-wrapped wire, exactly where a real
// fabric would, and the outermost position is what fillReport type-asserts
// for FaultStats.
func (j *Job) wrapTransport(node int, tr transport.Transport) transport.Transport {
	if j.cfg.WrapTransport != nil {
		tr = j.cfg.WrapTransport(tr)
	}
	if j.cfg.Faults.Enabled() {
		tr = faults.New(tr, j.cfg.Faults, node)
	}
	return tr
}

// spawnCPUKernels starts one thread per CPU-kernel rank on the job's
// substrate (simulated procs or live goroutines).
func (j *Job) spawnCPUKernels() error {
	if j.cpuKernel == nil {
		if j.hasCPUs() {
			return fmt.Errorf("dcgn: CPU-kernel threads requested but no CPU kernel installed")
		}
		return nil
	}
	for n := 0; n < j.cfg.Nodes; n++ {
		for c := 0; c < j.rmap.Spec(n).CPUKernels; c++ {
			ns := j.nodes[n]
			rank := j.rmap.CPURank(n, c)
			ns.rt.Spawn(fmt.Sprintf("cpu-kern:%d.%d", n, c), func(p transport.Proc) {
				j.cpuKernel(&CPUCtx{job: j, ns: ns, tp: p, rank: rank})
			})
		}
	}
	return nil
}

// fillReport assembles the backend-independent portion of a Report from
// the per-node engine state (trace, node stats, bus/GPU aggregates, pool
// accounting).
func (j *Job) fillReport(rep *Report) {
	if j.trace != nil {
		rep.Trace = j.trace.spans()
		rep.TraceDropped = j.trace.dropped()
		if j.cfg.Flows && rep.Elapsed > 0 {
			rep.CriticalPath = flow.CriticalPath(rep.Trace, j.flowEpoch, j.flowEpoch+rep.Elapsed)
		}
	}
	if j.metrics != nil {
		snap := j.metrics.Snapshot()
		rep.Counters = snap.Counters
		rep.Gauges = snap.Gauges
		rep.Histograms = snap.Histograms
	}
	for _, ns := range j.nodes {
		st := NodeStats{
			Node:            ns.node,
			RequestsHandled: ns.requestsHandled,
			LocalRequests:   ns.intake.localPosts.Load(),
			WireMessages:    ns.intake.wirePosts.Load(),
			PeakIntakeDepth: int(ns.intake.peakDepth.Load()),
			PeakPending:     ns.index.peakDepth(),
		}
		if ns.rel != nil {
			st.Retransmits = atomic.LoadInt64(&ns.rel.retransmits)
			st.DupWireFrames = atomic.LoadInt64(&ns.rel.dupFrames)
			st.AcksSent = atomic.LoadInt64(&ns.rel.acksSent)
			st.AcksReceived = atomic.LoadInt64(&ns.rel.acksReceived)
			rep.Retransmits += st.Retransmits
			rep.DupWireFrames += st.DupWireFrames
			rep.AcksSent += st.AcksSent
			rep.AcksReceived += st.AcksReceived
		}
		st.CollRetries = atomic.LoadInt64(&ns.collRetried)
		rep.CollRetries += st.CollRetries
		if ns.osw != nil {
			st.OneSidedPuts = atomic.LoadInt64(&ns.osw.putsSent)
			st.OneSidedGets = atomic.LoadInt64(&ns.osw.getsSent)
			st.TriggeredOps = atomic.LoadInt64(&ns.osw.trigFired)
			rep.OneSidedPuts += st.OneSidedPuts
			rep.OneSidedGets += st.OneSidedGets
			rep.TriggeredOps += st.TriggeredOps
			rep.OneSidedTruncated += atomic.LoadInt64(&ns.osw.truncated)
		}
		if fr, ok := ns.tr.(transport.FaultReporter); ok {
			st.Faults = fr.FaultStats()
			rep.FaultsInjected = rep.FaultsInjected.Plus(st.Faults)
		}
		rep.Nodes = append(rep.Nodes, st)
		if ns.bus != nil {
			rep.BusTransfers += ns.bus.Transfers
			rep.BusCtlOps += ns.bus.CtlOps
		}
		rep.Requests += st.RequestsHandled
		if st.PeakPending > rep.PeakPending {
			rep.PeakPending = st.PeakPending
		}
		for _, gt := range ns.gpus {
			rep.Polls += gt.Polls
			rep.PollHits += gt.Hits
		}
	}
	rep.PoolAcquires = j.pool.Acquires()
	rep.PoolReleases = j.pool.Releases()
	rep.PoolHits = j.pool.Hits()
}
