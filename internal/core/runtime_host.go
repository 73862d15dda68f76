package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/obs"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/live"
	"dcgn/internal/transport/simmpi"
)

// Runtime hosts many concurrent DCGN jobs over one shared backend — the
// multi-tenant generalization of Job.Run (which is exactly a runtime of
// one: the whole cluster, one tenant, admitted immediately). Jobs are
// submitted with a tenant label, weight and priority; the runtime admits
// them onto free nodes under stride-based weighted fair sharing, queues
// them (bounded, never silently dropped) when the cluster is saturated,
// and gives every admitted job fully isolated engine state: its own
// buffer pool, matcher, intake, reliability sequence space, metrics
// partition and Report.
//
// Isolation is by construction, not by locking: each tenant gets a
// private tag band (simulated backend) or a private channel group (live
// backend), so co-resident jobs can never match each other's traffic,
// and nodes are exclusively owned by one job at a time — tenants
// multiplex the cluster over time, not space-share a node.
//
// The two backends host differently:
//
//   - Live (transport.BackendLive): the runtime is long-lived. Submit
//     admits immediately when nodes are free; jobs run concurrently on
//     goroutines and handles resolve as they finish. Cancel aborts a
//     running job by closing its transport group.
//   - Simulated (transport.BackendSim): the runtime is batch-mode, because
//     virtual time only advances inside one Run. Submit everything first,
//     then Run executes the whole batch on a single shared simulator —
//     admission happens at t=0 and again, in virtual time, whenever a
//     finishing job frees its nodes. Scheduling is exactly as
//     deterministic as a single-job run.
type Runtime struct {
	cfg   RuntimeConfig
	epoch time.Time // live clock origin for JobStatus times

	mu      sync.Mutex
	nextID  int
	jobs    []*rtJob
	queue   []*rtJob
	tenants map[string]*tenantState
	// free / freeNodes track node occupancy. The simulated backend needs
	// real node identities (fabric distances are id-based); the live
	// backend's nodes are interchangeable goroutines, so only the count
	// matters there.
	free      []bool
	freeNodes int
	draining  bool
	closed    bool
	templates map[string]func() *Job

	obsParts *obs.Partitioned
	debug    debugServer

	// Live substrate: one shared cluster, one tenant group per job.
	pool    *bufpool.Pool
	cluster *live.Cluster
	wg      sync.WaitGroup

	// Simulated substrate, built by Run: one simulator, fabric and MPI
	// world shared by every tenant.
	sim     *sim.Sim
	net     *fabric.Network
	world   *mpi.World
	simPool *bufpool.Pool
	ran     bool
	// simActive is true while Run is driving the simulator; it gates the
	// sim-context-only paths (mid-batch Submit from an OnJobDone callback,
	// Cancel of a running simulated job).
	simActive bool
	// scheduled holds SubmitAt submissions awaiting their virtual arrival
	// time; Run turns each into an arrival proc.
	scheduled []*rtJob

	// sched is the runtime-wide scheduling registry (queue-wait and
	// end-to-end latency histograms, admission counters), aggregate and
	// per tenant. It lives in the "runtime" partition of obsParts so the
	// debug endpoint serves it alongside per-job metrics, and it is never
	// dropped.
	sched *obs.Registry

	// onJobDone, when set (before Run / the first Submit), is invoked
	// without locks held each time a job reaches a terminal state on the
	// execution path — sim completions and cancellations run it in sim
	// context, live completions on the job's goroutine. Closed-loop load
	// generators use it to submit follow-up work; on the simulated backend
	// that is the only way to submit mid-batch.
	onJobDone func(JobStatus)
}

// RuntimeConfig describes the shared substrate a Runtime serves jobs on.
// Submitted jobs bring their own kernels, node counts and engine tuning
// (Config.Params, Bus, Device, Reliability, OneSided...); the cluster
// shape and wire model below are runtime-wide and the corresponding
// fields of submitted job Configs are ignored.
type RuntimeConfig struct {
	// Nodes is the shared cluster size; a submitted job may request at
	// most this many nodes.
	Nodes int
	// Transport selects the backend every job runs on (BackendSim or
	// BackendLive); submitted jobs must match.
	Transport transport.Config
	// Net is the simulated fabric shape (BackendSim only).
	Net fabric.Config
	// MPI tunes the shared underlying MPI library (BackendSim only).
	MPI mpi.Config
	// MaxVirtualTime caps the whole simulated batch (BackendSim) or each
	// job's wall-clock watchdog (BackendLive). Defaults to the single-job
	// default.
	MaxVirtualTime time.Duration
	// MaxQueue bounds the admission queue: saturation queues submissions
	// rather than rejecting them, and only past MaxQueue pending jobs does
	// Submit fail with ErrQueueFull. Defaults to 64.
	MaxQueue int
	// DebugAddr, when set, serves the runtime control API (list, submit by
	// template, cancel, drain) and the merged per-tenant metrics snapshot
	// over HTTP; see runtime_http.go. ":0" binds a free port, readable via
	// ControlAddr.
	DebugAddr string
}

// DefaultMaxQueue is the admission-queue bound when RuntimeConfig.MaxQueue
// is zero.
const DefaultMaxQueue = 64

// validate normalizes a runtime configuration in place.
func (rc *RuntimeConfig) validate() error {
	if rc.Nodes <= 0 {
		return fmt.Errorf("dcgn: runtime needs at least one node, got %d", rc.Nodes)
	}
	switch rc.Transport.Name() {
	case transport.BackendSim, transport.BackendLive:
	default:
		return fmt.Errorf("dcgn: unknown transport backend %q", rc.Transport.Backend)
	}
	if rc.MaxQueue <= 0 {
		rc.MaxQueue = DefaultMaxQueue
	}
	if rc.MaxVirtualTime <= 0 {
		rc.MaxVirtualTime = DefaultConfig().MaxVirtualTime
	}
	if rc.Net == (fabric.Config{}) {
		rc.Net = DefaultConfig().Net
	}
	if rc.MPI == (mpi.Config{}) {
		rc.MPI = DefaultConfig().MPI
	}
	return nil
}

// SubmitOpts labels a submission for scheduling.
type SubmitOpts struct {
	// Name labels the job in List and the control API; defaults to
	// "job-<id>".
	Name string
	// Tenant groups jobs for fair sharing; all of a tenant's jobs charge
	// one stride account. Defaults to the job's name (every job its own
	// tenant).
	Tenant string
	// Weight is the tenant's fair-share weight (default 1): a
	// weight-2 tenant is admitted twice the node-time of a weight-1 tenant
	// under contention.
	Weight int
	// Priority orders admissions strictly: any queued priority-p job is
	// admitted before every job of lower priority, regardless of weights.
	Priority int
}

// JobState is the lifecycle state of a submitted job.
type JobState int

// Job lifecycle states.
const (
	// JobQueued means the job awaits free nodes in the admission queue.
	JobQueued JobState = iota
	// JobRunning means the job's kernels are executing.
	JobRunning
	// JobDone means the job completed and its Report is final.
	JobDone
	// JobFailed means the job ended with an error.
	JobFailed
	// JobCanceled means the job was canceled before or during execution.
	JobCanceled
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("state-%d", int(s))
}

// JobStatus is a point-in-time snapshot of one submission.
type JobStatus struct {
	// ID is the runtime-assigned job id (ids start at 1).
	ID int
	// Name and Tenant echo the submission's labels.
	Name   string
	Tenant string
	// State is the lifecycle state at snapshot time.
	State JobState
	// Nodes is the job's node count.
	Nodes int
	// Weight and Priority echo the scheduling parameters.
	Weight   int
	Priority int
	// SubmittedAt / StartedAt / FinishedAt are on the runtime clock:
	// virtual time on the simulated backend, wall time since runtime
	// creation on the live backend. Zero when not yet reached.
	SubmittedAt time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
}

// Runtime control errors.
var (
	// ErrJobCanceled reports a job aborted by Cancel.
	ErrJobCanceled = errors.New("dcgn: job canceled")
	// ErrQueueFull reports a Submit past the bounded admission queue.
	ErrQueueFull = errors.New("dcgn: runtime admission queue is full")
	// ErrRuntimeClosed reports a Submit to a draining or closed runtime.
	ErrRuntimeClosed = errors.New("dcgn: runtime is draining or closed")
	// ErrNoSuchJob reports a Cancel (or status lookup) for an unknown id.
	ErrNoSuchJob = errors.New("dcgn: no such job")
)

// rtJob is the runtime's bookkeeping for one submission.
type rtJob struct {
	id       int
	name     string
	tenant   string
	weight   int
	priority int
	job      *Job

	state       JobState
	submittedAt time.Duration
	startedAt   time.Duration
	finishedAt  time.Duration

	// notBefore is the job's virtual arrival time when it was scheduled
	// with SubmitAt; it enters the admission queue only once the clock
	// reaches it.
	notBefore time.Duration

	// placement / simGroup are the simulated backend's node assignment and
	// tenant transport group.
	placement []int
	simGroup  *simmpi.Group
	// simProcs holds every worker proc the job spawned on the shared
	// simulator, so a running job can be torn down by Cancel. Appended in
	// sim context, drained by the cancel injection; dead procs are
	// harmless leftovers (Kill skips them).
	simProcs []*sim.Proc
	// procs counts live engine procs (kernels and the helpers their
	// requests spawn) on the simulated backend; the zero-crossing after
	// kernels spawn is the job's completion point. finished latches the
	// first crossing — a straggling post-completion helper (a re-ack for a
	// duplicate frame) must not finish the job twice.
	procs    atomic.Int64
	finished bool

	partKey string

	report Report
	err    error
	done   chan struct{}

	cancelCh   chan struct{}
	cancelOnce sync.Once
}

// tenantState is one tenant's stride-scheduling account.
type tenantState struct {
	weight int
	// pass is the tenant's stride virtual time: admitting a job advances
	// it by nodes*strideScale/weight, so under contention tenants accrue
	// node-time proportionally to weight.
	pass int64
}

// strideScale keeps pass arithmetic integral.
const strideScale = 1 << 20

// JobHandle tracks one submission.
type JobHandle struct {
	r *Runtime
	j *rtJob
}

// ID returns the runtime-assigned job id.
func (h *JobHandle) ID() int { return h.j.id }

// Wait blocks until the job reaches a terminal state and returns its
// Report. On the simulated backend jobs only execute inside Runtime.Run,
// so Wait resolves during (or after) that call.
func (h *JobHandle) Wait() (Report, error) {
	<-h.j.done
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.j.report, h.j.err
}

// Status snapshots the job's current state.
func (h *JobHandle) Status() JobStatus {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.r.statusLocked(h.j)
}

// Cancel cancels the job; see Runtime.Cancel.
func (h *JobHandle) Cancel() error { return h.r.Cancel(h.j.id) }

// NewRuntime builds a runtime over the given shared substrate. Live
// runtimes are ready immediately and long-lived; simulated runtimes
// collect submissions and execute them in one Run.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:       cfg,
		epoch:     time.Now(),
		tenants:   make(map[string]*tenantState),
		templates: make(map[string]func() *Job),
		freeNodes: cfg.Nodes,
		obsParts:  obs.NewPartitioned(),
	}
	r.free = make([]bool, cfg.Nodes)
	for i := range r.free {
		r.free[i] = true
	}
	r.sched = r.obsParts.Partition("runtime")
	if cfg.Transport.Name() == transport.BackendLive {
		r.pool = bufpool.New()
		r.cluster = live.New(cfg.Nodes, r.pool)
	}
	if err := r.startControl(); err != nil {
		return nil, err
	}
	return r, nil
}

// backend names the runtime's transport backend.
func (r *Runtime) backend() string { return r.cfg.Transport.Name() }

// SetOnJobDone installs a callback invoked, without runtime locks held,
// each time a job reaches a terminal state on the execution path (done,
// failed, canceled, or shed at its virtual arrival time). It must be set
// before Run (simulated) or before the first Submit (live). On the
// simulated backend the callback runs in sim context and may Submit
// follow-up jobs mid-batch — the closed-loop arrival hook; spawn-failure
// and post-Run sweep terminations do not fire it.
func (r *Runtime) SetOnJobDone(fn func(JobStatus)) { r.onJobDone = fn }

// SchedSnapshot copies the runtime-wide scheduling registry: queue_wait_ns
// and e2e_ns histograms (aggregate and per "tenant=<name>" suffix) plus
// jobs_{submitted,done,failed,canceled,rejected} counters. Unlike per-job
// metrics partitions it is never dropped, so it is readable after Run.
func (r *Runtime) SchedSnapshot() obs.Snapshot { return r.sched.Snapshot() }

// notifyJobDone runs the terminal-state callback for c. Never called with
// r.mu held.
func (r *Runtime) notifyJobDone(c *rtJob) {
	if r.onJobDone == nil {
		return
	}
	r.mu.Lock()
	st := r.statusLocked(c)
	r.mu.Unlock()
	r.onJobDone(st)
}

// schedEnqueuedLocked records a submission entering the admission queue.
func (r *Runtime) schedEnqueuedLocked(c *rtJob) {
	r.sched.Counter("jobs_submitted").Add(1)
	r.sched.Gauge("queue_depth_peak").SetMax(int64(len(r.queue)))
}

// schedAdmittedLocked records a job's admission queue wait.
func (r *Runtime) schedAdmittedLocked(c *rtJob) {
	w := int64(c.startedAt - c.submittedAt)
	r.sched.Histogram("queue_wait_ns").Observe(w)
	r.sched.Histogram("queue_wait_ns/tenant=" + c.tenant).Observe(w)
}

// schedFinishedLocked records a job's terminal state: the per-outcome
// counter, and for completed jobs the end-to-end (submit → finish)
// latency.
func (r *Runtime) schedFinishedLocked(c *rtJob) {
	switch {
	case c.state == JobDone:
		r.sched.Counter("jobs_done").Add(1)
		e := int64(c.finishedAt - c.submittedAt)
		r.sched.Histogram("e2e_ns").Observe(e)
		r.sched.Histogram("e2e_ns/tenant=" + c.tenant).Observe(e)
	case c.state == JobCanceled:
		r.sched.Counter("jobs_canceled").Add(1)
	case errors.Is(c.err, ErrQueueFull):
		r.sched.Counter("jobs_rejected").Add(1)
	default:
		r.sched.Counter("jobs_failed").Add(1)
	}
}

// now returns the runtime clock: virtual time on the simulated backend
// (zero before Run), wall time since creation on the live backend.
func (r *Runtime) now() time.Duration {
	if r.backend() == transport.BackendSim {
		if r.sim == nil {
			return 0
		}
		return r.sim.Now()
	}
	return time.Since(r.epoch)
}

// Submit enqueues a configured job (kernels installed, Config describing
// its node count and engine tuning) for admission. It returns a handle
// immediately: on the live backend the job starts as soon as nodes are
// free, on the simulated backend it runs inside Runtime.Run. When the
// cluster is saturated the job queues; only past MaxQueue pending jobs
// does Submit fail with ErrQueueFull.
//
// The job's Config.Transport must match the runtime's backend, its node
// count must fit the cluster, and runtime-wide concerns must be left to
// the runtime: per-job DebugAddr and Shards are rejected, and on the
// simulated backend per-job fault injection and jitter are too (they
// would perturb co-tenants; run those jobs exclusively via Job.Run).
func (r *Runtime) Submit(job *Job, opts SubmitOpts) (*JobHandle, error) {
	if job == nil {
		return nil, fmt.Errorf("dcgn: Submit needs a job")
	}
	if err := r.checkSubmittable(job); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.draining {
		return nil, ErrRuntimeClosed
	}
	if r.backend() == transport.BackendSim && r.ran && !r.simActive {
		// Mid-batch submission is allowed only while the simulator is live
		// (sim context: an OnJobDone callback); after the batch, nothing
		// could ever execute the job.
		return nil, fmt.Errorf("dcgn: simulated runtime is batch-mode: submit before Run")
	}
	if len(r.queue) >= r.cfg.MaxQueue {
		r.sched.Counter("jobs_rejected").Add(1)
		return nil, ErrQueueFull
	}
	r.nextID++ // ids start at 1: tenant 0 is the single-job compatibility band
	c := &rtJob{
		id:       r.nextID,
		name:     opts.Name,
		tenant:   opts.Tenant,
		weight:   opts.Weight,
		priority: opts.Priority,
		job:      job,
		state:    JobQueued,
		done:     make(chan struct{}),
		cancelCh: make(chan struct{}),
	}
	if c.name == "" {
		c.name = fmt.Sprintf("job-%d", c.id)
	}
	if c.tenant == "" {
		c.tenant = c.name
	}
	if c.weight <= 0 {
		c.weight = 1
	}
	c.submittedAt = r.now()
	r.ensureTenantLocked(c.tenant, c.weight)
	r.jobs = append(r.jobs, c)
	r.queue = append(r.queue, c)
	r.schedEnqueuedLocked(c)
	switch {
	case r.backend() == transport.BackendLive:
		r.admitLiveLocked()
	case r.simActive:
		r.admitSimLocked()
	}
	return &JobHandle{r: r, j: c}, nil
}

// SubmitAt schedules a job to arrive at virtual time `at` (simulated
// backend, before Run): the job joins the admission queue only once the
// batch clock reaches the arrival time, where the usual MaxQueue bound
// applies — an arrival into a full queue is shed and its handle resolves
// with ErrQueueFull. This is the open-loop traffic entry point: a load
// generator pre-computes a seeded arrival schedule, and the batch then
// replays it deterministically. Arrivals keep the simulation alive until
// they fire, so gaps in the schedule cannot end the batch early.
func (r *Runtime) SubmitAt(job *Job, opts SubmitOpts, at time.Duration) (*JobHandle, error) {
	if job == nil {
		return nil, fmt.Errorf("dcgn: SubmitAt needs a job")
	}
	if r.backend() != transport.BackendSim {
		return nil, fmt.Errorf("dcgn: SubmitAt is virtual-time scheduling; the live backend paces submissions on the wall clock")
	}
	if at < 0 {
		at = 0
	}
	if err := r.checkSubmittable(job); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.draining {
		return nil, ErrRuntimeClosed
	}
	if r.ran {
		return nil, fmt.Errorf("dcgn: simulated runtime is batch-mode: schedule arrivals before Run")
	}
	r.nextID++
	c := &rtJob{
		id:        r.nextID,
		name:      opts.Name,
		tenant:    opts.Tenant,
		weight:    opts.Weight,
		priority:  opts.Priority,
		job:       job,
		state:     JobQueued,
		notBefore: at,
		done:      make(chan struct{}),
		cancelCh:  make(chan struct{}),
	}
	if c.name == "" {
		c.name = fmt.Sprintf("job-%d", c.id)
	}
	if c.tenant == "" {
		c.tenant = c.name
	}
	if c.weight <= 0 {
		c.weight = 1
	}
	c.submittedAt = at
	r.ensureTenantLocked(c.tenant, c.weight)
	r.jobs = append(r.jobs, c)
	r.scheduled = append(r.scheduled, c)
	return &JobHandle{r: r, j: c}, nil
}

// arriveSimJob moves a scheduled job into the admission queue at its
// virtual arrival time (sim context, from its arrival proc). A full queue
// sheds the arrival with ErrQueueFull.
func (r *Runtime) arriveSimJob(c *rtJob, now time.Duration) {
	r.mu.Lock()
	if c.state != JobQueued {
		// Canceled (or otherwise resolved) before it arrived.
		r.mu.Unlock()
		return
	}
	c.submittedAt = now
	r.ensureTenantLocked(c.tenant, c.weight)
	if len(r.queue) >= r.cfg.MaxQueue {
		c.state = JobFailed
		c.err = ErrQueueFull
		c.finishedAt = now
		r.schedFinishedLocked(c)
		r.mu.Unlock()
		close(c.done)
		r.notifyJobDone(c)
		return
	}
	r.queue = append(r.queue, c)
	r.schedEnqueuedLocked(c)
	r.admitSimLocked()
	r.mu.Unlock()
}

// checkSubmittable validates a job against the runtime's substrate.
func (r *Runtime) checkSubmittable(job *Job) error {
	cfg := job.Config()
	if job.cpuKernel == nil && job.gpuKernel == nil {
		return fmt.Errorf("dcgn: no kernels installed")
	}
	if cfg.Transport.Name() != r.backend() {
		return fmt.Errorf("dcgn: job backend %q does not match runtime backend %q", cfg.Transport.Name(), r.backend())
	}
	if cfg.Nodes > r.cfg.Nodes {
		return fmt.Errorf("dcgn: job wants %d nodes, runtime has %d", cfg.Nodes, r.cfg.Nodes)
	}
	if cfg.Shards > 0 {
		return fmt.Errorf("dcgn: sharded jobs run exclusively (Job.Run), not under a runtime")
	}
	if err := cfg.shardError(); err != nil {
		return err
	}
	if cfg.DebugAddr != "" {
		return fmt.Errorf("dcgn: the runtime owns the debug endpoint; clear the job's DebugAddr")
	}
	counted := 0
	if job.cpuKernel != nil {
		for n := 0; n < job.rmap.Nodes(); n++ {
			counted += job.rmap.Spec(n).CPUKernels
		}
	}
	if job.gpuKernel != nil {
		for n := 0; n < job.rmap.Nodes(); n++ {
			counted += job.rmap.Spec(n).GPUs
		}
	}
	if counted == 0 {
		return fmt.Errorf("dcgn: job spawns no kernel threads (its completion would be undetectable)")
	}
	switch r.backend() {
	case transport.BackendSim:
		if cfg.Faults.Enabled() {
			return fmt.Errorf("dcgn: per-job fault injection is exclusive-mode only on the simulated backend (it perturbs co-tenant determinism)")
		}
		if cfg.JitterFrac > 0 || cfg.JitterSeed != 0 {
			return fmt.Errorf("dcgn: per-job jitter is exclusive-mode only (the virtual clock is runtime-wide)")
		}
	case transport.BackendLive:
		if job.hasGPUs() {
			return fmt.Errorf("dcgn: live backend supports CPU kernels only (GPUs need the simulated device model)")
		}
		if cfg.JitterFrac > 0 {
			return fmt.Errorf("dcgn: live backend has no virtual-time jitter model")
		}
	}
	return nil
}

// ensureTenantLocked creates or refreshes a tenant's stride account. A
// tenant (re)entering the queue is advanced to the active minimum pass,
// so idle time never banks into a later burst advantage.
func (r *Runtime) ensureTenantLocked(name string, weight int) {
	t := r.tenants[name]
	if t == nil {
		t = &tenantState{weight: weight, pass: r.minActivePassLocked()}
		r.tenants[name] = t
		return
	}
	if weight > 0 {
		t.weight = weight
	}
	if !r.tenantActiveLocked(name) {
		if min := r.minActivePassLocked(); min > t.pass {
			t.pass = min
		}
	}
}

// tenantActiveLocked reports whether the tenant has queued or running
// jobs.
func (r *Runtime) tenantActiveLocked(name string) bool {
	for _, c := range r.jobs {
		if c.tenant == name && (c.state == JobQueued || c.state == JobRunning) {
			return true
		}
	}
	return false
}

// minActivePassLocked is the stride scheduler's global virtual time: the
// minimum pass among tenants with pending or running work (falling back
// to the overall maximum, keeping pass monotone for fresh tenants).
func (r *Runtime) minActivePassLocked() int64 {
	min, have := int64(0), false
	for name, t := range r.tenants {
		if !r.tenantActiveLocked(name) {
			continue
		}
		if !have || t.pass < min {
			min, have = t.pass, true
		}
	}
	if have {
		return min
	}
	var max int64
	for _, t := range r.tenants {
		if t.pass > max {
			max = t.pass
		}
	}
	return max
}

// pickLocked selects the next queued job: strictly by priority, then by
// lowest tenant pass (weighted fair share), then FIFO. The caller admits
// it only if it fits — no backfill behind a blocked head, so a large job
// cannot be starved by a stream of small ones.
func (r *Runtime) pickLocked() *rtJob {
	var best *rtJob
	var bestPass int64
	for _, c := range r.queue {
		p := r.tenants[c.tenant].pass
		if best == nil ||
			c.priority > best.priority ||
			(c.priority == best.priority && (p < bestPass || (p == bestPass && c.id < best.id))) {
			best, bestPass = c, p
		}
	}
	return best
}

// dequeueLocked removes a job from the admission queue.
func (r *Runtime) dequeueLocked(c *rtJob) {
	for i, q := range r.queue {
		if q == c {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
}

// chargeTenantLocked advances the admitted job's tenant pass by its
// node-time claim.
func (r *Runtime) chargeTenantLocked(c *rtJob) {
	t := r.tenants[c.tenant]
	t.pass += int64(c.job.cfg.Nodes) * strideScale / int64(t.weight)
}

// setupObsLocked wires the job's trace sink and its tenant metrics
// partition (dropped again after the final Report snapshot).
func (r *Runtime) setupObsLocked(c *rtJob) {
	j := c.job
	if j.cfg.Trace {
		j.trace = newTraceSink(j.cfg.Nodes, j.rmap.Total(), j.cfg.TraceCap, j.cfg.Flows)
	}
	if j.cfg.Metrics {
		c.partKey = fmt.Sprintf("%s/job-%d", c.tenant, c.id)
		j.metrics = r.obsParts.Partition(c.partKey)
	}
}

// statusLocked snapshots one job.
func (r *Runtime) statusLocked(c *rtJob) JobStatus {
	return JobStatus{
		ID:          c.id,
		Name:        c.name,
		Tenant:      c.tenant,
		State:       c.state,
		Nodes:       c.job.cfg.Nodes,
		Weight:      c.weight,
		Priority:    c.priority,
		SubmittedAt: c.submittedAt,
		StartedAt:   c.startedAt,
		FinishedAt:  c.finishedAt,
	}
}

// List snapshots every submission, in submit order.
func (r *Runtime) List() []JobStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobStatus, 0, len(r.jobs))
	for _, c := range r.jobs {
		out = append(out, r.statusLocked(c))
	}
	return out
}

// Cancel cancels a job. A queued job is removed from the admission queue
// immediately; a running live job has its transport group closed, which
// unwinds its engine (its handle resolves with ErrJobCanceled and a
// partial Report). A running simulated job is torn down at the next
// virtual-time event boundary: the cancel is injected into the scheduler,
// which kills the job's procs, frees its nodes and resolves the handle
// with ErrJobCanceled and a partial Report — co-tenant determinism is
// preserved because the teardown happens between events on the shared
// clock. Canceling an unknown id fails with ErrNoSuchJob.
func (r *Runtime) Cancel(id int) error {
	r.mu.Lock()
	var c *rtJob
	for _, q := range r.jobs {
		if q.id == id {
			c = q
			break
		}
	}
	if c == nil {
		r.mu.Unlock()
		return fmt.Errorf("dcgn: job %d: %w", id, ErrNoSuchJob)
	}
	switch c.state {
	case JobQueued:
		r.dequeueLocked(c)
		c.state = JobCanceled
		c.err = ErrJobCanceled
		c.finishedAt = r.now()
		r.schedFinishedLocked(c)
		if r.backend() == transport.BackendLive {
			// The canceled job may have been the blocked head of line.
			r.admitLiveLocked()
		}
		r.mu.Unlock()
		close(c.done)
		r.notifyJobDone(c)
		return nil
	case JobRunning:
		if r.backend() == transport.BackendSim {
			s := r.sim
			r.mu.Unlock()
			if s == nil || !s.Inject(func() { r.cancelSimJobNow(c) }) {
				return fmt.Errorf("dcgn: job %d is running but the batch has ended", id)
			}
			return nil
		}
		r.mu.Unlock()
		c.cancelOnce.Do(func() { close(c.cancelCh) })
		return nil
	default:
		r.mu.Unlock()
		return fmt.Errorf("dcgn: job %d already %s", id, c.state)
	}
}

// cancelSimJobNow tears down a running simulated job. It executes in
// scheduler context (via sim.Inject) at an event boundary, where no proc
// is mid-step: every worker proc the job spawned is killed (their defers
// release staging state; pending timers for dead procs become no-ops),
// the partial Report is assembled exactly like a completion, and the
// freed nodes admit successors at the current virtual time. The job's
// engine daemons stay parked in their tag band, which is the same
// harmless leftover failAdmittedSimLocked documents.
func (r *Runtime) cancelSimJobNow(c *rtJob) {
	r.mu.Lock()
	if c.state != JobRunning || c.finished {
		// Completed (or already canceled) before the injection ran.
		r.mu.Unlock()
		return
	}
	// Latch finished first: killed procs still run their deferred exit(),
	// and the zero-crossing there must not double-finish the job.
	c.finished = true
	procs := c.simProcs
	c.simProcs = nil
	r.mu.Unlock()

	for _, p := range procs {
		r.sim.Kill(p)
	}

	rep := Report{
		Elapsed:    r.sim.Now() - c.startedAt,
		NetPackets: int(c.simGroup.Packets()),
		NetBytes:   c.simGroup.Bytes(),
	}
	c.job.fillReport(&rep)

	r.mu.Lock()
	c.report = rep
	c.state = JobCanceled
	c.err = ErrJobCanceled
	c.finishedAt = r.sim.Now()
	r.schedFinishedLocked(c)
	if c.partKey != "" {
		r.obsParts.Drop(c.partKey)
	}
	for _, n := range c.placement {
		r.free[n] = true
	}
	r.freeNodes += len(c.placement)
	r.admitSimLocked()
	r.mu.Unlock()
	close(c.done)
	r.notifyJobDone(c)
}

// Drain stops admitting new submissions and blocks until every accepted
// job reaches a terminal state. On the simulated backend that requires
// Run to execute the batch (call Drain after, or concurrently with, Run).
func (r *Runtime) Drain() {
	r.mu.Lock()
	r.draining = true
	jobs := append([]*rtJob(nil), r.jobs...)
	r.mu.Unlock()
	for _, c := range jobs {
		<-c.done
	}
}

// Close drains the runtime and tears down its substrate: the shared live
// cluster and the control endpoint. The runtime is unusable afterwards.
func (r *Runtime) Close() error {
	r.Drain()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.wg.Wait()
	if r.cluster != nil {
		r.cluster.Close()
	}
	r.stopControl()
	return nil
}

// --- Live admission ------------------------------------------------------

// admitLiveLocked starts every queued job that fits, best-candidate
// first, each on its own goroutine over a fresh tenant group of the
// shared cluster.
func (r *Runtime) admitLiveLocked() {
	for {
		c := r.pickLocked()
		if c == nil || c.job.cfg.Nodes > r.freeNodes {
			return
		}
		r.dequeueLocked(c)
		r.chargeTenantLocked(c)
		n := c.job.cfg.Nodes
		r.freeNodes -= n
		c.state = JobRunning
		c.startedAt = r.now()
		r.schedAdmittedLocked(c)
		c.job.pool = bufpool.New()
		g, err := r.cluster.Join(c.id, n, c.job.pool)
		if err != nil {
			c.state = JobFailed
			c.err = err
			c.finishedAt = r.now()
			r.freeNodes += n
			close(c.done)
			continue
		}
		r.setupObsLocked(c)
		r.wg.Add(1)
		go r.runLiveJob(c, g)
	}
}

// runLiveJob executes one admitted job over its tenant group and then
// frees its nodes, triggering the next admission round.
func (r *Runtime) runLiveJob(c *rtJob, g *live.Group) {
	defer r.wg.Done()
	env := &liveEnv{
		endpoint: func(n int) transport.Transport { return g.Endpoint(n) },
		closeTr:  func() { _ = g.Close() },
		packets:  g.Packets,
		bytes:    g.Bytes,
		cancel:   c.cancelCh,
	}
	rep, err := c.job.runLiveEnv(env)
	r.mu.Lock()
	c.report, c.err = rep, err
	switch {
	case err == nil:
		c.state = JobDone
	case errors.Is(err, ErrJobCanceled):
		c.state = JobCanceled
	default:
		c.state = JobFailed
	}
	c.finishedAt = r.now()
	r.schedFinishedLocked(c)
	if c.partKey != "" {
		r.obsParts.Drop(c.partKey)
	}
	r.freeNodes += c.job.cfg.Nodes
	if !r.closed {
		r.admitLiveLocked()
	}
	r.mu.Unlock()
	close(c.done)
	r.notifyJobDone(c)
}

// --- Simulated batch execution -------------------------------------------

// Run executes the whole submitted batch on the simulated backend: it
// builds the shared substrate (one simulator, fabric and MPI world),
// admits at t=0, and lets finishing jobs admit their successors in
// virtual time. It returns when every admitted job has finished (or the
// runtime-wide MaxVirtualTime cap fires). Live runtimes have no Run —
// submissions execute as they are admitted.
func (r *Runtime) Run() error {
	r.mu.Lock()
	if r.backend() != transport.BackendSim {
		r.mu.Unlock()
		return fmt.Errorf("dcgn: Run is the simulated batch executor; live runtimes run jobs on Submit")
	}
	if r.ran {
		r.mu.Unlock()
		return fmt.Errorf("dcgn: runtime batch already ran")
	}
	r.ran = true
	s := sim.New()
	s.SetMaxTime(r.cfg.MaxVirtualTime)
	r.sim = s
	r.net = fabric.New(s, r.cfg.Nodes, r.cfg.Net)
	r.simPool = bufpool.New()
	nodeOf := make([]int, r.cfg.Nodes)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	mpiCfg := r.cfg.MPI
	mpiCfg.Pool = r.simPool
	r.world = mpi.NewWorld(s, r.net, nodeOf, mpiCfg)
	// Turn every SubmitAt schedule into an arrival proc. Arrivals are
	// non-daemon so the batch stays alive through gaps in the schedule;
	// spawn order (schedule order) plus the timer heap's (time, seq)
	// ordering keeps simultaneous arrivals deterministic.
	for _, c := range r.scheduled {
		c := c
		s.SpawnID("arrival", c.id, func(p *sim.Proc) {
			p.Sleep(c.notBefore)
			r.arriveSimJob(c, p.Now())
		})
	}
	r.simActive = true
	r.admitSimLocked()
	r.mu.Unlock()

	err := s.Run()

	r.mu.Lock()
	r.simActive = false
	r.mu.Unlock()

	// Anything not terminal after the simulator drained hit the virtual
	// time cap (or could never be admitted); resolve its handle so Wait
	// and Drain cannot hang.
	r.mu.Lock()
	for _, c := range r.jobs {
		if c.state == JobQueued || c.state == JobRunning {
			c.state = JobFailed
			if err != nil {
				c.err = fmt.Errorf("dcgn: batch ended before job %d finished: %w", c.id, err)
			} else {
				c.err = fmt.Errorf("dcgn: batch ended before job %d finished", c.id)
			}
			c.finishedAt = r.now()
			r.schedFinishedLocked(c)
			close(c.done)
		}
	}
	r.mu.Unlock()
	return err
}

// admitSimLocked admits every queued job that fits onto concrete free
// nodes, lowest ids first. Called at t=0 and, in virtual time, from
// finishing jobs.
func (r *Runtime) admitSimLocked() {
	for {
		c := r.pickLocked()
		if c == nil || c.job.cfg.Nodes > r.freeNodes {
			return
		}
		r.dequeueLocked(c)
		r.chargeTenantLocked(c)
		placement := make([]int, 0, c.job.cfg.Nodes)
		for n := 0; n < len(r.free) && len(placement) < c.job.cfg.Nodes; n++ {
			if r.free[n] {
				r.free[n] = false
				placement = append(placement, n)
			}
		}
		r.freeNodes -= len(placement)
		r.admitSimJobLocked(c, placement)
	}
}

// admitSimJobLocked builds one admitted job's engine over the shared
// substrate: a private buffer pool retargeted under its world ranks, a
// tenant transport group in its own tag band, per-node engines in
// tenant-local node space, and kernels spawned through the counting rt
// whose zero-crossing is the job's completion.
func (r *Runtime) admitSimJobLocked(c *rtJob, placement []int) {
	j := c.job
	c.placement = placement
	c.state = JobRunning
	c.startedAt = r.sim.Now()
	// The runtime's simulated clock is shared across tenants, so the
	// critical-path window of this job starts at its admission instant.
	j.flowEpoch = c.startedAt
	r.schedAdmittedLocked(c)

	j.sim = r.sim
	crt := &countingRT{simRT: simRT{s: r.sim}, c: c, r: r}
	j.rt = crt
	j.net = r.net
	j.world = r.world
	j.pool = bufpool.New()
	// Exclusive node ownership makes the pool retarget safe: the previous
	// tenant of these ranks has quiesced (its proc count crossed zero), so
	// no staging acquired from the old pool is still in flight.
	for _, w := range placement {
		r.world.SetRankPool(w, j.pool)
	}
	c.simGroup = simmpi.NewGroup(r.world, placement, c.id)
	j.trFactory = func(local int) transport.Transport { return c.simGroup.Endpoint(local) }
	r.setupObsLocked(c)

	j.nodes = nil
	for n := 0; n < j.cfg.Nodes; n++ {
		j.nodes = append(j.nodes, j.buildSimNode(n, r.sim, crt))
	}
	if err := j.spawnCPUKernels(); err != nil {
		r.failAdmittedSimLocked(c, err)
		return
	}
	if err := j.spawnGPUKernels(); err != nil {
		r.failAdmittedSimLocked(c, err)
		return
	}
}

// failAdmittedSimLocked resolves a job whose kernel spawn failed after
// its nodes were claimed. The nodes are returned (their leftover engine
// daemons are tag-isolated and harmless); no procs were spawned, so
// there is nothing to quiesce.
func (r *Runtime) failAdmittedSimLocked(c *rtJob, err error) {
	c.state = JobFailed
	c.err = err
	c.finishedAt = r.sim.Now()
	r.schedFinishedLocked(c)
	for _, n := range c.placement {
		r.free[n] = true
	}
	r.freeNodes += len(c.placement)
	if c.partKey != "" {
		r.obsParts.Drop(c.partKey)
	}
	close(c.done)
}

// countingRT is the per-tenant execution substrate on a shared
// simulator: a 1:1 veneer over simRT that counts worker procs (kernels
// and the helpers their requests spawn — daemons pass through), so the
// runtime observes the job's completion as the count's zero-crossing.
// Spawns happen strictly before the spawned proc runs, so the count can
// never cross zero while work remains.
type countingRT struct {
	simRT
	c *rtJob
	r *Runtime
}

// Spawn counts and starts a worker proc, retaining the proc handle so
// Cancel can tear the job down mid-run.
func (k *countingRT) Spawn(name string, fn func(transport.Proc)) {
	k.c.procs.Add(1)
	p := k.s.Spawn(name, func(p *sim.Proc) {
		defer k.exit()
		fn(p)
	})
	k.c.simProcs = append(k.c.simProcs, p)
}

// SpawnID counts and starts a worker proc with a formatted name.
func (k *countingRT) SpawnID(prefix string, id int, fn func(transport.Proc)) {
	k.c.procs.Add(1)
	p := k.s.SpawnID(prefix, id, func(p *sim.Proc) {
		defer k.exit()
		fn(p)
	})
	k.c.simProcs = append(k.c.simProcs, p)
}

// exit retires one worker proc; the first zero-crossing completes the
// job, in virtual time, on the proc that crossed it.
func (k *countingRT) exit() {
	if k.c.procs.Add(-1) == 0 && !k.c.finished {
		k.c.finished = true
		k.r.finishSimJob(k.c)
	}
}

// finishSimJob assembles a finished tenant's Report (per-tenant wire
// totals from its group, per-job pool and engine counters via
// fillReport), frees its nodes and admits successors — all at the
// current virtual time.
func (r *Runtime) finishSimJob(c *rtJob) {
	j := c.job
	rep := Report{
		Elapsed:    r.sim.Now() - c.startedAt,
		NetPackets: int(c.simGroup.Packets()),
		NetBytes:   c.simGroup.Bytes(),
	}
	j.fillReport(&rep)
	// The report owns the spans now; releasing the sink frees the
	// preallocated per-node rings, which a long-lived runtime retaining
	// every rtJob would otherwise hold forever. Safe here: the job's procs
	// have all exited (this runs at the zero-crossing) and the sim event
	// loop is single-threaded.
	j.trace = nil
	r.mu.Lock()
	c.report = rep
	c.state = JobDone
	c.finishedAt = r.sim.Now()
	r.schedFinishedLocked(c)
	if c.partKey != "" {
		r.obsParts.Drop(c.partKey)
	}
	for _, n := range c.placement {
		r.free[n] = true
	}
	r.freeNodes += len(c.placement)
	r.admitSimLocked()
	r.mu.Unlock()
	close(c.done)
	r.notifyJobDone(c)
}

// --- Exclusive (single-job) execution ------------------------------------

// runExclusive executes j as a runtime of one — the whole cluster, one
// tenant, admitted immediately — on the legacy engine paths, which is
// what keeps dcgn.NewJob(cfg).Run() bit-identical to the pre-runtime
// engine. Job.Run delegates here after its observability setup.
func runExclusive(j *Job) (Report, error) {
	switch j.cfg.Transport.Name() {
	case transport.BackendSim:
		if j.cfg.Shards > 0 {
			return j.runShardedSim()
		}
		return j.runSim()
	case transport.BackendLive:
		if j.cfg.Shards > 0 {
			return Report{}, fmt.Errorf("dcgn: sharded runs need the simulated backend (the live backend has no virtual clock to window)")
		}
		return j.runLive()
	default:
		return Report{}, fmt.Errorf("dcgn: unknown transport backend %q", j.cfg.Transport.Backend)
	}
}
