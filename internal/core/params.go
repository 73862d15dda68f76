// Package core implements DCGN — Distributed Computing on GPU Networks
// (Stuart & Owens, IPDPS 2009) — an MPI-like message-passing library in
// which data-parallel devices are first-class communication targets.
//
// The architecture follows §3.2.2–§3.2.3 of the paper. Each node process
// hosts three classes of threads:
//
//   - CPU-kernel threads execute user CPU kernels and relay their
//     communication requests to the communication thread;
//   - GPU-kernel threads launch device kernels, monitor device memory for
//     device-sourced communication requests via sleep-based polling, and
//     shuttle data over the PCIe bus;
//   - exactly one communication thread per node owns the underlying MPI
//     library, executes every MPI call, performs local (intra-node)
//     matching with memcpy instead of MPI, and accumulates collective
//     arrivals until every resident rank has joined.
//
// Ranks are virtualized with slots: node n owns Cn + Gn*Sn consecutive
// ranks (CPU-kernel threads first, then GPU slots in (gpu, slot) order).
package core

import (
	"errors"
	"fmt"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/pcie"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// Reliability configures the engine's wire-level reliability layer
// (reliable.go): sequence numbers on every wire frame, receiver-side
// dedup/resequencing, and sender-side ack/timeout/retransmit with capped
// exponential backoff. Off by default — the legacy wire format is
// byte-identical to PR 3 and the golden determinism suite pins it — and
// auto-enabled whenever Config.Faults can drop or reorder wire messages,
// because an unreliable engine deadlocks on the first lost packet.
type Reliability struct {
	// Enabled switches every wire frame to the sequenced format and turns
	// on ack/retransmit.
	Enabled bool
	// AckTimeout is the initial retransmit timeout (default 20ms); each
	// retry doubles it up to BackoffCap.
	AckTimeout time.Duration
	// MaxRetries bounds retransmissions per message (default 12) before
	// the send completes with ErrUnacked.
	MaxRetries int
	// BackoffCap bounds the doubled timeout (default 500ms).
	BackoffCap time.Duration
}

// Params holds DCGN's internal overhead model. The defaults are calibrated
// so the paper's measured ratios hold (see DESIGN.md §5 and EXPERIMENTS.md):
// a 0-byte DCGN CPU:CPU send ≈ 28x the raw MPI send, a 2-CPU single-node
// barrier ≈ 12.7x MPI, a 0-byte GPU:GPU send ≈ 560x, and large-message
// costs converging to within a few percent of raw MPI.
type Params struct {
	// EnqueueCost is charged to a kernel thread for posting one request
	// into the comm thread's thread-safe work queue (lock + allocation +
	// TSD lookup).
	EnqueueCost time.Duration
	// DispatchCost is charged on the comm thread per request it dequeues
	// and routes (wakeup + demux).
	DispatchCost time.Duration
	// NotifyCost is charged on the comm thread per completion it signals
	// back to a waiting kernel thread (condition-variable wake).
	NotifyCost time.Duration
	// RemoteRelayCost is charged per inter-node message on each side
	// (header packing, request bookkeeping, and the extra queue hop through
	// the MPI receiver helper). It is why a remote DCGN send costs ~28x a
	// raw MPI send at 0 bytes while a single-node barrier is only ~13x.
	RemoteRelayCost time.Duration
	// LocalMemcpyBW is the bandwidth of intra-node staging copies performed
	// by the comm thread (bytes/sec).
	LocalMemcpyBW float64
	// TreeDispersal enables the paper's proposed future optimization of
	// copying collective results to local buffers in a tree instead of
	// sequentially (§3.2.3); off by default, as in the paper.
	TreeDispersal bool
	// MaxMsg is the largest DCGN message payload; sized for staging
	// buffers.
	MaxMsg int
	// DoorbellCost is charged per one-sided descriptor post: the doorbell
	// write that hands a put/get to the NIC model, whether rung by a CPU
	// kernel or by a GPU-triggered descriptor (default 1µs). Only charged
	// on the one-sided lane, so classic-path timing is untouched.
	DoorbellCost time.Duration
	// OneSidedApplyCost is charged at the target per applied one-sided
	// frame: window lookup, bounds clipping and completion accounting in
	// the sink daemon (default 2µs). Only charged on the one-sided lane.
	OneSidedApplyCost time.Duration
}

// FutureHW models the vendor additions the paper asks for (§5.2 "Looking
// Forward", §7): "A method for signaling the CPU from the GPU, a direct
// connection to the NIC, a direct GPU-to-GPU connection via PCI-e, and
// buffers in system memory so the GPU may push data."
type FutureHW struct {
	// DeviceSignal lets the device raise a doorbell interrupt instead of
	// being polled: requests are serviced immediately, eliminating the
	// poll-interval alignment of every stage.
	DeviceSignal bool
	// GPUDirect moves payloads between device memory and the NIC without
	// staging through host buffers: DMA setup latency drops to doorbell
	// cost and the CPU relay bookkeeping per payload disappears.
	GPUDirect bool
}

// DefaultParams returns the calibrated overhead model.
func DefaultParams() Params {
	return Params{
		EnqueueCost:       5 * time.Microsecond,
		DispatchCost:      10 * time.Microsecond,
		NotifyCost:        7 * time.Microsecond,
		RemoteRelayCost:   18 * time.Microsecond,
		LocalMemcpyBW:     4e9,
		MaxMsg:            64 << 20,
		DoorbellCost:      1 * time.Microsecond,
		OneSidedApplyCost: 2 * time.Microsecond,
	}
}

// Config describes one DCGN job: a homogeneous cluster (as in the paper's
// testbed) of Nodes nodes, each contributing CPUKernels CPU-kernel threads,
// GPUs devices and SlotsPerGPU communication slots per device.
type Config struct {
	Nodes       int
	CPUKernels  int // Cn: CPU-kernel threads per node
	GPUs        int // Gn: devices per node
	SlotsPerGPU int // Sn: slots (virtualized ranks) per device

	// PerNode optionally overrides the homogeneous counts above with a
	// heterogeneous cluster shape; when set, its length must equal Nodes.
	// The paper's rank rule and vector collectives handle this directly
	// (§3.2.3: "Every node_n is given Cn + (Gn x Sn) ranks").
	PerNode []NodeSpec

	// PollInterval is the sleep between GPU-memory polls by a GPU-kernel
	// thread (the paper's latency/CPU-load trade-off, §3.2.3).
	PollInterval time.Duration

	// FutureHW enables the hardware capabilities the paper's §7 "Looking
	// Forward" predicts: with them, "DCGN and other libraries' performance
	// [will] rival that of CPU-based communication libraries". Off by
	// default (the paper's 2008 reality).
	FutureHW FutureHW

	Device device.Config
	Net    fabric.Config
	Bus    pcie.Config
	MPI    mpi.Config
	Params Params

	// Transport selects the progress-engine backend: the default simulated
	// MPI transport on the deterministic virtual cluster, or the live
	// goroutine/channel transport on the wall clock (CPU kernels only).
	Transport transport.Config

	// WrapTransport, when set, wraps each node's transport endpoint before
	// the progress engine uses it. It exists for tests: fault injection
	// (failing collectives, dropping sends) and instrumentation.
	WrapTransport func(transport.Transport) transport.Transport

	// Faults installs the deterministic fault-injection middleware
	// (internal/transport/faults) outermost on every node's transport.
	// Any nonzero wire-fault probability auto-enables Reliability.
	Faults faults.Config

	// Reliability configures the wire-level ack/retransmit layer; see the
	// Reliability type. Zero value = off (legacy wire format).
	Reliability Reliability

	// OneSided enables the one-sided communication lane: window
	// registration (CPUCtx.RegisterWindow / GPUSetup.RegisterWindow),
	// Put/Get with remote-completion notification (WinWait), persistent
	// puts, and GPU-triggered operations (GPUCtx.TriggerPut /
	// TriggerStart) that a per-device NIC daemon fires without any
	// comm-thread relay or monitor poll tick. Off by default: enabling it
	// spawns one sink daemon per node (and one NIC daemon per device), so
	// the classic configurations the golden suite pins stay untouched.
	OneSided bool

	// Shards splits the simulated cluster into that many per-node-group
	// event loops that advance in parallel OS threads, synchronized by
	// conservative lookahead windows derived from the fabric's minimum
	// cross-shard latency (internal/sim.Sharded). Zero keeps the classic
	// single event loop; any value >= 1 selects the sharded engine, whose
	// results are bit-identical for every shard count — Shards=1 is the
	// way to check that on one thread. Clamped to Nodes. Sharded runs are
	// simulated-backend only and exclude jitter and fault injection.
	Shards int

	// JitterFrac/JitterSeed add multiplicative timing noise (for the
	// run-to-run variation experiments, Fig. 5). Zero disables jitter.
	JitterFrac float64
	JitterSeed int64

	// MaxVirtualTime aborts runaway simulations; zero means one hour of
	// virtual time.
	MaxVirtualTime time.Duration

	// Trace records every communication request's lifecycle span into
	// Report.Trace (op, ranks, and per-phase timestamps: posted, dequeued,
	// handled, matched, wire-sent, acked, done). For debugging, the
	// dcgn-trace inspection output and the Chrome/Perfetto exporter; small
	// overhead, off by default.
	Trace bool

	// TraceCap overrides the per-node span ring capacity (default
	// obs.DefaultRingCap, 8192). Once a node's ring is full the oldest
	// spans are overwritten and Report.TraceDropped counts them.
	TraceCap int

	// Flows enables causal message-flow tracing (internal/obs/flow): every
	// traced span gets a trace ID and span ID, wire frames on both
	// transports and the one-sided lane carry the 16-byte flow context so
	// receives inherit their sender's trace, Report.CriticalPath attributes
	// the job's elapsed time phase by phase, and the Chrome exporter emits
	// Perfetto flow arrows linking send→recv→ack across nodes. Implies
	// Trace. Off by default: the context lengthens every wire frame, so
	// flows-on runs are deterministic per seed but not byte-identical to
	// flows-off runs.
	Flows bool

	// Metrics enables the job-wide metrics registry: counters, gauges and
	// log2-bucketed histograms (match wait, queue depth, poll efficiency,
	// retransmit backoff, collective-accumulation wait), snapshotted into
	// Report.Histograms / Counters / Gauges. Off by default.
	Metrics bool

	// DebugAddr, when non-empty, serves live expvar-style JSON snapshots
	// of the metrics registry over HTTP for mid-run inspection (":0"
	// picks a free port; see Job.DebugAddr). Setting it implies Metrics.
	DebugAddr string
}

// DefaultConfig returns the paper's testbed shape: 4 nodes, 2 CPU-kernel
// threads and 2 GPUs per node, 1 slot per GPU, with calibrated substrate
// constants.
func DefaultConfig() Config {
	return Config{
		Nodes:        4,
		CPUKernels:   2,
		GPUs:         2,
		SlotsPerGPU:  1,
		PollInterval: 120 * time.Microsecond,
		Device:       device.DefaultConfig("gpu"),
		Net:          fabric.DefaultConfig(),
		Bus:          pcie.DefaultConfig(),
		MPI:          mpi.DefaultConfig(),
		Params:       DefaultParams(),
	}
}

// validate panics on nonsensical configurations.
func (c *Config) validate() {
	if c.Nodes <= 0 {
		panic("core: need at least one node")
	}
	if len(c.PerNode) > 0 && len(c.PerNode) != c.Nodes {
		panic("core: PerNode length must equal Nodes")
	}
	if len(c.PerNode) == 0 {
		if c.CPUKernels < 0 || c.GPUs < 0 || c.SlotsPerGPU < 0 {
			panic("core: negative resource count")
		}
		if c.GPUs > 0 && c.SlotsPerGPU == 0 {
			c.SlotsPerGPU = 1 // paper: "each DPM has at least one slot"
		}
		if c.CPUKernels+c.GPUs*c.SlotsPerGPU == 0 {
			panic("core: node contributes no ranks")
		}
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 120 * time.Microsecond
	}
	if c.Shards > c.Nodes {
		c.Shards = c.Nodes
	}
	if c.Params.MaxMsg == 0 {
		c.Params = DefaultParams()
	}
	if c.Params.DoorbellCost <= 0 {
		c.Params.DoorbellCost = 1 * time.Microsecond
	}
	if c.Params.OneSidedApplyCost <= 0 {
		c.Params.OneSidedApplyCost = 2 * time.Microsecond
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = time.Hour
	}
	if c.Faults.WireActive() {
		c.Reliability.Enabled = true
	}
	if c.Reliability.AckTimeout <= 0 {
		c.Reliability.AckTimeout = 20 * time.Millisecond
	}
	if c.Reliability.MaxRetries <= 0 {
		c.Reliability.MaxRetries = 12
	}
	if c.Reliability.BackoffCap <= 0 {
		c.Reliability.BackoffCap = 500 * time.Millisecond
	}
	if c.DebugAddr != "" {
		c.Metrics = true
	}
	if c.Flows {
		c.Trace = true
	}
}

// shardError reports a shard setting the sharded backend cannot run;
// Job.Run returns it instead of running.
func (c *Config) shardError() error {
	switch {
	case c.Shards < 0:
		return fmt.Errorf("dcgn: negative shard count %d", c.Shards)
	case c.Shards > 0 && c.JitterFrac > 0:
		return errors.New("dcgn: sharded runs do not support jitter (per-shard rng draws would depend on the shard count)")
	case c.Shards > 0 && c.Faults.Enabled():
		return errors.New("dcgn: sharded runs do not support fault injection (the chaos harness runs on the single event loop)")
	}
	return nil
}

// nodeSpecs expands the configuration into per-node shapes.
func (c *Config) nodeSpecs() []NodeSpec {
	if len(c.PerNode) > 0 {
		specs := append([]NodeSpec(nil), c.PerNode...)
		for i := range specs {
			if specs[i].GPUs > 0 && specs[i].SlotsPerGPU == 0 {
				specs[i].SlotsPerGPU = 1
			}
		}
		return specs
	}
	specs := make([]NodeSpec, c.Nodes)
	for i := range specs {
		specs[i] = NodeSpec{CPUKernels: c.CPUKernels, GPUs: c.GPUs, SlotsPerGPU: c.SlotsPerGPU}
	}
	return specs
}
