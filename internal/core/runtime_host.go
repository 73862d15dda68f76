package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dcgn/internal/bufpool"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/obs"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
	"dcgn/internal/transport/live"
)

// Runtime hosts many concurrent DCGN jobs over one shared backend. Job.Run
// is a runtime of one: a runtime sized to the job, which it admits
// immediately onto the whole cluster. Jobs are
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
	// free / freeNodes track node occupancy. Placements are concrete node
	// ids on both backends: the simulated fabric's distances are id-based,
	// while the live backend's nodes are interchangeable goroutines.
	free      []bool
	freeNodes int
	draining  bool
	closed    bool
	templates map[string]func() *Job
	// admitting is set while an admission round runs, so a job that ends
	// inside it (a failed live Join) does not start a nested round.
	admitting bool

	obsParts *obs.Partitioned
	debug    debugServer

	// Live substrate: one shared cluster, one tenant group per job.
	cluster *live.Cluster
	wg      sync.WaitGroup

	// Simulated substrate, built by Run: one simulator, fabric and MPI
	// world shared by every tenant.
	sim   *sim.Sim
	net   *fabric.Network
	world *mpi.World
	ran   bool
	// simActive is true while Run is driving the simulator; it gates the
	// sim-context-only paths (mid-batch Submit from an OnJobDone callback,
	// Cancel of a running simulated job).
	simActive bool
	// scheduled holds SubmitAt submissions awaiting their virtual arrival
	// time; Run turns each into an arrival proc.
	scheduled []*rtJob
	// jitterFrac / jitterSeed perturb the simulator's timing (Config's
	// jitter fields). Only Job.Run sets them: jitter moves the clock every
	// tenant shares, so Submit refuses jittered jobs.
	jitterFrac float64
	jitterSeed int64

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

	// placement is the job's node assignment.
	placement []int
	// wirePackets / wireBytes are the placement's fabric send counters at
	// admission (simulated backend): the job's wire totals are the growth
	// from there to its end.
	wirePackets int
	wireBytes   int64
	// pool is the job's staging pool on the simulated backend, kept after
	// the job ends: a frame still on the wire then (a duplicate, say) is
	// released into it later, so Run re-reads its counters into the Report
	// once the batch has drained.
	pool *bufpool.Pool
	// simProcs holds the job's live worker procs on the shared simulator
	// (kernels and the helpers their requests spawn), so a running job can
	// be torn down by Cancel. A proc's slot is freed for reuse when it
	// exits (freeSlots), so the table is as long as the most procs ever
	// alive at once. Touched only in sim context. The live count's
	// zero-crossing after kernels spawn is the job's completion point;
	// finished latches the first crossing — a straggling post-completion
	// helper (a re-ack for a duplicate frame) must not finish the job
	// twice.
	simProcs  []*sim.Proc
	freeSlots []int
	finished  bool

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
// so Wait resolves during (or after) that call; the Report's pool
// counters are final once Run has returned (a frame still on the wire
// when the job ends is released later).
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
		r.cluster = live.New()
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
// follow-up jobs mid-batch — the closed-loop arrival hook. A job that
// fails admission (its live group cannot join) and jobs the post-Run
// sweep ends do not fire it.
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
	if err := r.checkTenancy(job); err != nil {
		return nil, err
	}
	return r.submit(job, opts)
}

// submit is Submit without the tenancy rules: Job.Run submits through it
// to a runtime of its own, where a debug endpoint, fault injection or
// jitter disturb no other tenant.
func (r *Runtime) submit(job *Job, opts SubmitOpts) (*JobHandle, error) {
	if err := r.checkJob(job); err != nil {
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
	c := r.newJobLocked(job, opts, r.now())
	r.queue = append(r.queue, c)
	r.schedEnqueuedLocked(c)
	r.admitLocked()
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
	if r.backend() != transport.BackendSim {
		return nil, fmt.Errorf("dcgn: SubmitAt is virtual-time scheduling; the live backend paces submissions on the wall clock")
	}
	if at < 0 {
		at = 0
	}
	if err := r.checkTenancy(job); err != nil {
		return nil, err
	}
	if err := r.checkJob(job); err != nil {
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
	c := r.newJobLocked(job, opts, at)
	r.scheduled = append(r.scheduled, c)
	return &JobHandle{r: r, j: c}, nil
}

// newJobLocked registers one submission, queued as of at (its arrival
// time for SubmitAt), and opens its tenant's stride account. Ids start at
// 1.
func (r *Runtime) newJobLocked(job *Job, opts SubmitOpts, at time.Duration) *rtJob {
	r.nextID++
	c := &rtJob{
		id:          r.nextID,
		name:        opts.Name,
		tenant:      opts.Tenant,
		weight:      opts.Weight,
		priority:    opts.Priority,
		job:         job,
		state:       JobQueued,
		submittedAt: at,
		notBefore:   at,
		done:        make(chan struct{}),
		cancelCh:    make(chan struct{}),
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
	r.ensureTenantLocked(c.tenant, c.weight)
	r.jobs = append(r.jobs, c)
	return c
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
		r.endLocked(c, Report{}, ErrQueueFull)
		r.mu.Unlock()
		r.notifyJobDone(c)
		return
	}
	r.queue = append(r.queue, c)
	r.schedEnqueuedLocked(c)
	r.admitLocked()
	r.mu.Unlock()
}

// checkJob validates a job against the runtime's substrate: the job check
// every run passes (Job.check), a matching backend, and a node count the
// cluster can hold.
func (r *Runtime) checkJob(job *Job) error {
	if err := job.check(); err != nil {
		return err
	}
	cfg := job.Config()
	if cfg.Transport.Name() != r.backend() {
		return fmt.Errorf("dcgn: job backend %q does not match runtime backend %q", cfg.Transport.Name(), r.backend())
	}
	if cfg.Nodes > r.cfg.Nodes {
		return fmt.Errorf("dcgn: job wants %d nodes, runtime has %d", cfg.Nodes, r.cfg.Nodes)
	}
	return nil
}

// checkTenancy applies the rules of sharing a runtime: runtime-wide
// concerns belong to the runtime, and on the simulated backend a job may
// not perturb the clock and wire its co-tenants share.
func (r *Runtime) checkTenancy(job *Job) error {
	if job == nil {
		return fmt.Errorf("dcgn: Submit needs a job")
	}
	cfg := job.Config()
	switch {
	case cfg.Shards > 0:
		return fmt.Errorf("dcgn: sharded jobs run exclusively (Job.Run), not under a runtime")
	case cfg.DebugAddr != "":
		return fmt.Errorf("dcgn: the runtime owns the debug endpoint; clear the job's DebugAddr")
	case r.backend() != transport.BackendSim:
		return nil
	case cfg.Faults.Enabled():
		return fmt.Errorf("dcgn: per-job fault injection is exclusive-mode only on the simulated backend (it perturbs co-tenant determinism)")
	case cfg.JitterFrac > 0 || cfg.JitterSeed != 0:
		return fmt.Errorf("dcgn: per-job jitter is exclusive-mode only (the virtual clock is runtime-wide)")
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
// partition (dropped again when the job ends). A job run solo arrives
// with both already made by Job.Run, whose debug endpoint serves them.
func (r *Runtime) setupObsLocked(c *rtJob) {
	j := c.job
	if j.cfg.Trace && j.trace == nil {
		j.trace = newTraceSink(j.cfg.Nodes, j.rmap.Total(), j.cfg.TraceCap, j.cfg.Flows)
	}
	if j.cfg.Metrics && j.metrics == nil {
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
		r.endLocked(c, Report{}, ErrJobCanceled)
		r.mu.Unlock()
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
// is mid-step: every worker proc the job has alive is killed (pending
// timers for dead procs become no-ops), the partial Report is assembled
// exactly like a completion, and the freed nodes admit successors at the
// current virtual time. The job's engine daemons stay parked in their tag
// band, harmless to the nodes' next tenants.
func (r *Runtime) cancelSimJobNow(c *rtJob) {
	r.mu.Lock()
	if c.state != JobRunning || c.finished {
		// Completed (or already canceled) before the injection ran.
		r.mu.Unlock()
		return
	}
	// Latch finished first, so nothing the teardown runs finishes the job.
	c.finished = true
	procs := append([]*sim.Proc(nil), c.simProcs...)
	r.mu.Unlock()

	for _, p := range procs {
		if p != nil {
			r.sim.Kill(p)
		}
	}
	rep := r.simReport(c)
	r.mu.Lock()
	r.endLocked(c, rep, ErrJobCanceled)
	r.mu.Unlock()
	r.notifyJobDone(c)
}

// endLocked is the one terminal transition: it settles c with its Report
// and error (nil: done; ErrJobCanceled: canceled; anything else: failed),
// counts the outcome, drops its metrics partition, returns its nodes,
// releases its engine state and resolves its handle. Freed nodes, or a
// canceled head of the live queue, start an admission round. The caller
// runs notifyJobDone after unlocking where the OnJobDone contract asks.
func (r *Runtime) endLocked(c *rtJob, rep Report, err error) {
	switch {
	case err == nil:
		c.state = JobDone
	case errors.Is(err, ErrJobCanceled):
		c.state = JobCanceled
	default:
		c.state = JobFailed
	}
	c.report, c.err = rep, err
	c.finishedAt = r.now()
	r.schedFinishedLocked(c)
	if c.partKey != "" {
		r.obsParts.Drop(c.partKey)
	}
	for _, n := range c.placement {
		r.free[n] = true
	}
	r.freeNodes += len(c.placement)
	// The Report owns the spans and counters now. The engine state goes,
	// so a long-lived runtime keeps only what List, Wait and the flows
	// endpoint read. On the simulated backend the pool stays (c.pool)
	// until the batch drains: the job's parked daemons may still release
	// a late frame into it. A canceled or timed-out live run may leave
	// kernels blocked for good that still reach the job's sinks and pool,
	// so only a clean live run gives those up.
	j := c.job
	j.nodes = nil
	if r.backend() == transport.BackendSim {
		j.trace, j.metrics = nil, nil
	} else if err == nil {
		j.trace, j.metrics, j.pool = nil, nil, nil
	}
	close(c.done)
	if len(c.placement) > 0 || r.backend() == transport.BackendLive {
		r.admitLocked()
	}
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

// --- Admission -----------------------------------------------------------

// admitLocked starts every queued job that fits, best candidate first, on
// the lowest free node ids: a live job on its own goroutine over a fresh
// tenant group of the shared cluster, a simulated job in the running
// batch. It is a no-op on a closed live runtime, outside a running batch
// and inside another admission round (which picks up freed nodes itself).
func (r *Runtime) admitLocked() {
	onLive := r.backend() == transport.BackendLive
	if r.admitting || (onLive && r.closed) || (!onLive && !r.simActive) {
		return
	}
	r.admitting = true
	defer func() { r.admitting = false }()
	for {
		c := r.pickLocked()
		if c == nil || c.job.cfg.Nodes > r.freeNodes {
			return
		}
		r.dequeueLocked(c)
		r.chargeTenantLocked(c)
		c.placement = make([]int, 0, c.job.cfg.Nodes)
		for n := 0; n < len(r.free) && len(c.placement) < c.job.cfg.Nodes; n++ {
			if r.free[n] {
				r.free[n] = false
				c.placement = append(c.placement, n)
			}
		}
		r.freeNodes -= len(c.placement)
		c.state = JobRunning
		c.startedAt = r.now()
		r.schedAdmittedLocked(c)
		if onLive {
			r.startLiveLocked(c)
		} else {
			r.startSimLocked(c)
		}
	}
}

// --- Live execution ------------------------------------------------------

// startLiveLocked joins an admitted job's tenant group and runs it on its
// own goroutine.
func (r *Runtime) startLiveLocked(c *rtJob) {
	c.job.pool = bufpool.New()
	g, err := r.cluster.Join(c.id, len(c.placement), c.job.pool)
	if err != nil {
		r.endLocked(c, Report{}, err)
		return
	}
	r.setupObsLocked(c)
	r.wg.Add(1)
	go r.runLiveJob(c, g)
}

// runLiveJob executes one admitted job over its tenant group, then ends
// it, which frees its nodes for the next admission round.
func (r *Runtime) runLiveJob(c *rtJob, g *live.Group) {
	defer r.wg.Done()
	rep, err := c.job.runLive(g, c.cancelCh)
	r.mu.Lock()
	r.endLocked(c, rep, err)
	r.mu.Unlock()
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
	if r.jitterFrac > 0 || r.jitterSeed != 0 {
		s.SetJitter(r.jitterFrac, r.jitterSeed)
	}
	s.SetMaxTime(r.cfg.MaxVirtualTime)
	r.sim = s
	r.net = fabric.New(s, r.cfg.Nodes, r.cfg.Net)
	nodeOf := make([]int, r.cfg.Nodes)
	for i := range nodeOf {
		nodeOf[i] = i
	}
	r.world = mpi.NewWorld(s, r.net, nodeOf, r.cfg.MPI)
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
	r.admitLocked()
	r.mu.Unlock()

	err := s.Run()

	// Anything not terminal after the simulator drained hit the virtual
	// time cap, deadlocked or could never be admitted; end it so Wait and
	// Drain cannot hang. Every job's pool is quiet now: its counters are
	// final.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.simActive = false
	for _, c := range r.jobs {
		if c.state == JobQueued || c.state == JobRunning {
			var rep Report
			if c.state == JobRunning {
				rep = r.simReport(c)
			}
			cut := fmt.Errorf("dcgn: batch ended before job %d finished", c.id)
			if err != nil {
				cut = fmt.Errorf("dcgn: batch ended before job %d finished: %w", c.id, err)
			}
			r.dequeueLocked(c)
			r.endLocked(c, rep, cut)
		}
		if c.pool != nil {
			c.report.readPool(c.pool)
			c.pool, c.job.pool = nil, nil
		}
	}
	return err
}

// startSimLocked builds an admitted job's engine over the shared
// substrate: a private buffer pool retargeted under its world ranks, a
// tenant group in its own tag band, per-node engines in tenant-local node
// space, and kernels spawned through the counting rt whose zero-crossing
// is the job's completion.
func (r *Runtime) startSimLocked(c *rtJob) {
	j := c.job
	// The runtime's simulated clock is shared across tenants, so the
	// critical-path window of this job starts at its admission instant.
	j.flowEpoch = c.startedAt
	j.sim = r.sim
	c.pool = bufpool.New()
	j.pool = c.pool
	// Exclusive node ownership makes the pool retarget safe: the previous
	// tenant of these ranks has quiesced (its proc count crossed zero), and
	// a late frame of its is released by its own daemons into its own pool.
	for _, w := range c.placement {
		r.world.SetRankPool(w, j.pool)
	}
	c.wirePackets, c.wireBytes = r.net.Totals(c.placement...)
	r.setupObsLocked(c)
	crt := &countingRT{simRT: simRT{s: r.sim}, c: c, r: r}
	j.startSim(r.world, c.placement, c.id, func(int) (*sim.Sim, rt) { return r.sim, crt })
}

// simReport assembles a simulated job's Report at the current virtual
// time: elapsed since admission, and the wire traffic its nodes sent
// since then.
func (r *Runtime) simReport(c *rtJob) Report {
	pk, by := r.net.Totals(c.placement...)
	return c.job.report(r.sim.Now()-c.startedAt, pk-c.wirePackets, by-c.wireBytes)
}

// countingRT is the per-job execution substrate on a shared simulator: a
// 1:1 veneer over simRT that tracks worker procs (kernels and the helpers
// their requests spawn — daemons pass through), so the runtime observes
// the job's completion as the live count's zero-crossing.
// Spawns happen strictly before the spawned proc runs, so the count can
// never cross zero while work remains.
type countingRT struct {
	simRT
	c *rtJob
	r *Runtime
}

// Spawn tracks and starts a worker proc.
func (k *countingRT) Spawn(name string, fn func(transport.Proc)) {
	slot := k.enter()
	k.c.simProcs[slot] = k.s.Spawn(name, func(p *sim.Proc) {
		fn(p)
		k.exit(slot)
	})
}

// SpawnID tracks and starts a worker proc with a formatted name.
func (k *countingRT) SpawnID(prefix string, id int, fn func(transport.Proc)) {
	slot := k.enter()
	k.c.simProcs[slot] = k.s.SpawnID(prefix, id, func(p *sim.Proc) {
		fn(p)
		k.exit(slot)
	})
}

// enter returns a free slot for one more worker's handle.
func (k *countingRT) enter() int {
	c := k.c
	if n := len(c.freeSlots); n > 0 {
		slot := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return slot
	}
	c.simProcs = append(c.simProcs, nil)
	return len(c.simProcs) - 1
}

// exit retires one worker proc that returned; the first zero-crossing
// completes the job, in virtual time, on the proc that crossed it. A proc
// killed by Cancel or by the simulator's shutdown unwinds past this call,
// so neither can complete the job.
func (k *countingRT) exit(slot int) {
	c := k.c
	c.simProcs[slot] = nil
	c.freeSlots = append(c.freeSlots, slot)
	if len(c.freeSlots) == len(c.simProcs) && !c.finished {
		c.finished = true
		rep := k.r.simReport(c)
		k.r.mu.Lock()
		k.r.endLocked(c, rep, nil)
		k.r.mu.Unlock()
		k.r.notifyJobDone(c)
	}
}
