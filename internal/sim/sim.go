// Package sim provides a deterministic, cooperative discrete-event
// simulation kernel. All higher-level substrates in this repository (the
// data-parallel device model, the PCIe bus, the cluster fabric, the MPI
// library and DCGN itself) are built on top of it.
//
// A Sim owns a virtual clock and a set of processes (Procs). Exactly one
// goroutine — either the driver (Run, RunFor or a shard's window) or a
// single Proc — runs at any moment, so simulation state needs no locking
// and every run is fully deterministic: the ready queue is FIFO and
// simultaneous timers fire in creation order.
//
// The scheduler step runs on the goroutine of the Proc that parks or
// finishes: it picks the next Proc exactly as the driver would and hands
// control straight to that Proc's goroutine (one channel operation per
// switch, none when the parking Proc is picked again). The driver is woken
// only at boundaries: an injected thunk, a failure, the end of the run or
// the window edge. A finished Proc's goroutine is kept and reused by the
// next Proc to start.
//
// Procs advance virtual time only through blocking primitives (Sleep, Event,
// Chan, Semaphore, ...). Plain Go computation inside a Proc consumes zero
// virtual time; simulated cost must be charged explicitly with Sleep.
//
// IMPORTANT: user code must not spawn raw goroutines that touch simulation
// state; all concurrency goes through Spawn. Every blocking primitive checks
// that it is invoked by the currently-running Proc and panics otherwise.
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// procState describes what a Proc is currently doing; used for deadlock
// diagnostics.
type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// killSentinel is the panic value used to unwind a Proc's goroutine when the
// Proc is killed or the simulation shuts down while the Proc is blocked.
type killSentinelType struct{}

var killSentinel = killSentinelType{}

// ident is a lazily-formatted identifier: either a fixed name or a
// (prefix, id) pair whose "prefix:id" string form is only materialized
// when something actually asks for it. Hot paths spawn procs and create
// events by the million; skipping the fmt.Sprintf for names nobody reads
// is one of the larger host-side allocation wins.
type ident struct {
	name   string
	prefix string
	id     int
}

func (d *ident) String() string {
	if d.name == "" && d.prefix != "" {
		d.name = d.prefix + ":" + strconv.Itoa(d.id)
	}
	return d.name
}

// labeler is anything a Proc can block on that can name itself for
// deadlock diagnostics.
type labeler interface{ label() string }

// parkKind says which primitive a Proc is blocked on; together with the
// blocked-on object and one integer argument it reconstructs the
// human-readable block reason without any formatting on the hot path.
type parkKind int

const (
	parkNone parkKind = iota
	parkSleep
	parkEvent
	parkWaitGroup
	parkChanSend
	parkChanRecv
	parkQueueGet
	parkSemaphore
)

// Proc is a simulated process (a cooperative green thread). A Proc handle is
// also the capability through which the process calls blocking primitives.
type Proc struct {
	sim   *Sim
	ident ident
	id    uint64
	fn    func(p *Proc) // until the proc starts
	// wake is the channel of the worker goroutine the proc runs on, bound
	// when it first runs; see Sim.work.
	wake chan struct{}
	// nextIdle links finished procs whose worker is idle; see Sim.idle.
	nextIdle *Proc
	state    procState
	// daemon procs (poll loops, progress engines) do not keep the
	// simulation alive: Run finishes when every non-daemon proc is done.
	daemon bool
	// blockKind/blockObj/blockArg describe what the Proc is blocked on;
	// the human-readable reason is only formatted for deadlock reports.
	blockKind parkKind
	blockObj  labeler
	blockArg  int64
}

// Name returns the name the Proc was spawned with.
func (p *Proc) Name() string { return p.ident.String() }

// Sim returns the simulation this Proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return time.Duration(p.sim.now) }

// Sim is a deterministic discrete-event scheduler.
type Sim struct {
	now     int64 // virtual time in nanoseconds since simulation start
	seq     uint64
	ready   []*Proc
	timers  timerHeap
	procs   []*Proc // all procs ever spawned (for shutdown/diagnostics)
	live    int     // procs not yet done
	current *Proc
	failure error
	stopped bool

	// pick is the driver's scheduling policy: it makes every decision up
	// to the next proc to run (firing timers, delivering arrivals) and
	// returns that proc, or nil when control must go back to the driver.
	// A parking or finishing proc runs it on its own goroutine.
	pick func() *Proc
	// driverCh wakes the driver goroutine once pick returns nil, or once
	// a Kill's victim has unwound.
	driverCh chan struct{}
	// idle is the last finished proc whose worker waits for the next proc
	// to start; earlier ones chain through nextIdle.
	idle  *Proc
	stats Stats

	rng        *rand.Rand
	jitterFrac float64
	maxTime    int64

	// injected holds thunks posted by Inject from foreign goroutines;
	// the scheduler drains them between events. injPending mirrors
	// len(injected) so the hot loop can skip the mutex when empty.
	injMu      sync.Mutex
	injected   []func()
	injPending atomic.Int32
	injClosed  bool

	// idleAt records the virtual time at which the live (non-daemon) proc
	// count last dropped to zero. Sharded runs report elapsed time as the
	// max of idleAt across shards so that daemon poll timers — whose
	// progress depends on window placement — cannot leak into Elapsed.
	idleAt int64
}

// New creates an empty simulation with the virtual clock at zero.
func New() *Sim {
	s := &Sim{
		driverCh: make(chan struct{}),
		rng:      rand.New(rand.NewSource(1)),
	}
	s.pick = s.pickRun
	return s
}

// Stats counts the kernel's own scheduling work. A switch is one resumption
// of a proc; each is made by the driver, by a direct handoff from the
// proc that parked or finished, or as a self-resume when the picker chose
// the parking proc itself (no goroutine switch at all). The driver is
// resumed DriverReturns times. Every proc that starts runs on a goroutine
// that was either started for it or reused from a finished proc.
type Stats struct {
	Switches          uint64
	DirectHandoffs    uint64
	SelfResumes       uint64
	DriverReturns     uint64
	GoroutinesStarted uint64
	GoroutinesReused  uint64
}

// Stats returns the kernel's counters so far. Like all simulation state it
// must be read from the running Proc, scheduler context, or after Run.
func (s *Sim) Stats() Stats { return s.stats }

// SetJitter configures multiplicative timing jitter: every duration passed
// through Jitter is scaled by a factor drawn uniformly from
// [1-frac, 1+frac] using the seeded generator. frac = 0 disables jitter.
// Jitter models run-to-run OS/network noise while keeping each seed's run
// fully deterministic.
func (s *Sim) SetJitter(frac float64, seed int64) {
	if frac < 0 {
		frac = 0
	}
	s.jitterFrac = frac
	s.rng = rand.New(rand.NewSource(seed))
}

// Jitter perturbs d by the configured jitter fraction. With jitter disabled
// it returns d unchanged.
func (s *Sim) Jitter(d time.Duration) time.Duration {
	if s.jitterFrac == 0 || d <= 0 {
		return d
	}
	f := 1 + s.jitterFrac*(2*s.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// Rand returns the simulation's seeded random generator. It must only be
// used from the currently-running Proc (or before Run), keeping runs
// deterministic.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return time.Duration(s.now) }

// SetMaxTime installs a virtual-time ceiling: Run fails with a TimeoutError
// if the clock would pass it. This guards against runaway daemon poll loops
// when user procs deadlock on events no timer can fire.
func (s *Sim) SetMaxTime(d time.Duration) { s.maxTime = int64(d) }

// Spawn creates a new Proc that will execute fn. It may be called before Run
// or from a running Proc. The new Proc is appended to the ready queue and
// starts running at the current virtual time, after already-ready Procs.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawn(ident{name: name}, fn, false)
}

// SpawnID is Spawn with a lazily-formatted "prefix:id" name; per-message
// spawn sites use it to avoid formatting a label nobody may ever read.
func (s *Sim) SpawnID(prefix string, id int, fn func(p *Proc)) *Proc {
	return s.spawn(ident{prefix: prefix, id: id}, fn, false)
}

// SpawnDaemon creates a Proc that does not keep the simulation alive:
// Run completes once all non-daemon Procs are done, regardless of daemons.
// Use it for poll loops and progress engines that run "for the life of the
// application" (paper §3.2.2).
func (s *Sim) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return s.spawn(ident{name: name}, fn, true)
}

// SpawnDaemonID is SpawnDaemon with a lazily-formatted "prefix:id" name.
func (s *Sim) SpawnDaemonID(prefix string, id int, fn func(p *Proc)) *Proc {
	return s.spawn(ident{prefix: prefix, id: id}, fn, true)
}

func (s *Sim) spawn(name ident, fn func(p *Proc), daemon bool) *Proc {
	s.seq++
	p := &Proc{
		sim:    s,
		ident:  name,
		id:     s.seq,
		fn:     fn,
		state:  stateReady,
		daemon: daemon,
	}
	s.procs = append(s.procs, p)
	if !daemon {
		s.live++
	}
	s.ready = append(s.ready, p)
	return p
}

// resume makes p the running proc and wakes the worker that runs it: p's
// own if p has parked, otherwise an idle worker or a new one. self is the
// calling worker's channel (nil for the driver); resume reports whether p
// was bound to self, in which case the caller must run p itself instead
// of waiting on its channel.
func (s *Sim) resume(p *Proc, self chan struct{}) bool {
	s.current = p
	p.state = stateRunning
	s.stats.Switches++
	if p.wake != nil {
		p.wake <- struct{}{}
		return false
	}
	if q := s.idle; q != nil {
		s.idle = q.nextIdle
		p.wake = q.wake
		s.stats.GoroutinesReused++
		if p.wake == self {
			return true
		}
		p.wake <- struct{}{}
		return false
	}
	s.stats.GoroutinesStarted++
	p.wake = make(chan struct{})
	go s.work(p.wake, p)
	return false
}

// handoff runs the scheduler step on the goroutine of from, a proc that
// just parked (from == self's proc) or finished (from == nil), and
// passes control to the proc the picker chose, or to the driver. It
// returns the proc the calling worker must go on running without waiting:
// from itself on a self-resume, or a fresh proc bound to this worker.
func (s *Sim) handoff(self chan struct{}, from *Proc) *Proc {
	next := s.pick()
	switch {
	case next == nil:
		s.current = nil
		s.stats.DriverReturns++
		s.driverCh <- struct{}{}
		return nil
	case next == from:
		next.state = stateRunning
		s.stats.Switches++
		s.stats.SelfResumes++
		return next
	}
	s.stats.DirectHandoffs++
	if s.resume(next, self) {
		return next
	}
	return nil
}

// work is the body of a worker: a goroutine that runs procs one after
// another. It runs p, then goes on the idle list, from which the next
// proc to start takes it, until shutdown reaps it. A send on wake resumes
// the worker to run s.current: its own parked proc, or a fresh one when
// idle. With no current proc (scheduler context) the send kills the
// parked proc, or ends the idle worker.
func (s *Sim) work(wake chan struct{}, p *Proc) {
	for p != nil {
		s.call(p)
		p.nextIdle = s.idle
		s.idle = p
		p = s.exit(p, wake)
	}
}

// call runs p's function to its end. A panic is recorded as the run's
// failure. A runtime.Goexit from inside the proc (t.FailNow in a test)
// ends the goroutine, so the deferred handler passes control on itself.
func (s *Sim) call(p *Proc) {
	returned := false
	defer func() {
		if returned {
			return
		}
		r := recover()
		if _, killed := r.(killSentinelType); !killed && r != nil && s.failure == nil {
			s.failure = &PanicError{Proc: p.Name(), Value: r, Stack: string(debug.Stack())}
		}
		if r == nil {
			s.exit(p, nil)
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	returned = true
}

// exit passes control on from p, which has just ended on the worker with
// channel self (nil when that goroutine is ending too), and returns the
// next proc for self to run. A killed p hands back to the Kill or
// shutdown waiting in scheduler context; any other p is finished and
// hands off to whatever the picker chooses.
func (s *Sim) exit(p *Proc, self chan struct{}) *Proc {
	if p.state == stateDone {
		s.stats.DriverReturns++
		s.driverCh <- struct{}{}
	} else {
		s.finish(p)
		if next := s.handoff(self, nil); next != nil {
			return next
		}
	}
	if self == nil {
		return nil
	}
	<-self
	return s.current
}

// finish marks p done and, for a non-daemon, updates the live count.
func (s *Sim) finish(p *Proc) {
	p.state = stateDone
	if !p.daemon {
		s.live--
		if s.live == 0 {
			s.idleAt = s.now
		}
	}
}

// checkCurrent panics unless p is the Proc currently scheduled to run. It
// guards against simulation state being touched from foreign goroutines.
func (p *Proc) checkCurrent(op string) {
	if p.sim.current != p {
		panic(fmt.Sprintf("sim: %s called from proc %q which is not the running proc", op, p.Name()))
	}
}

// park blocks the calling Proc until something resumes it. The caller must
// have registered p somewhere (timer heap, waiter list) that will eventually
// call sim.unblock(p); otherwise the simulation deadlocks. The block reason
// is recorded as (kind, object, argument) and only rendered to a string by
// deadlock reports — parking is the hottest operation in the simulator and
// must not allocate.
func (p *Proc) park(kind parkKind, obj labeler, arg int64) {
	p.checkCurrent("park")
	p.state = stateBlocked
	p.blockKind = kind
	p.blockObj = obj
	p.blockArg = arg
	if s := p.sim; s.handoff(p.wake, p) == nil {
		<-p.wake
		if s.current != p { // woken by Kill or shutdown
			p.state = stateDone
			panic(killSentinel)
		}
	}
	p.blockKind = parkNone
	p.blockObj = nil
}

// blockReason renders what a blocked Proc is waiting on (deadlock reports
// only; never called on the hot path).
func (p *Proc) blockReason() string {
	switch p.blockKind {
	case parkSleep:
		return fmt.Sprintf("sleep until %v", time.Duration(p.blockArg))
	case parkEvent:
		return fmt.Sprintf("event %q", p.blockObj.label())
	case parkWaitGroup:
		return fmt.Sprintf("waitgroup %q (count %d)", p.blockObj.label(), p.blockArg)
	case parkChanSend:
		return fmt.Sprintf("chan send %q", p.blockObj.label())
	case parkChanRecv:
		return fmt.Sprintf("chan recv %q", p.blockObj.label())
	case parkQueueGet:
		return fmt.Sprintf("queue get %q", p.blockObj.label())
	case parkSemaphore:
		sem := p.blockObj.(*Semaphore)
		return fmt.Sprintf("semaphore %q (want %d, avail %d)", sem.name, p.blockArg, sem.avail)
	}
	return "blocked"
}

// unblock moves a blocked Proc to the back of the ready queue.
func (s *Sim) unblock(p *Proc) {
	if p.state == stateDone {
		return
	}
	p.state = stateReady
	s.ready = append(s.ready, p)
}

// Sleep advances the Proc's virtual time by d. Sleep(0) yields to the back
// of the ready queue without advancing time; negative durations are treated
// as zero.
func (p *Proc) Sleep(d time.Duration) {
	p.checkCurrent("Sleep")
	s := p.sim
	if d < 0 {
		d = 0
	}
	s.seq++
	at := s.now + int64(d)
	s.timers.push(timer{at: at, seq: s.seq, p: p})
	p.park(parkSleep, nil, at)
}

// SleepJit sleeps for a jitter-perturbed d.
func (p *Proc) SleepJit(d time.Duration) {
	p.Sleep(p.sim.Jitter(d))
}

// Yield gives other ready Procs a chance to run at the same virtual time.
func (p *Proc) Yield() { p.Sleep(0) }

// runProc hands control from the driver to p and waits until the procs,
// handing off among themselves, give it back.
func (s *Sim) runProc(p *Proc) {
	s.resume(p, nil)
	<-s.driverCh
}

// Inject posts fn to be executed by the scheduler goroutine at the next
// virtual-time event boundary (between proc steps, with no proc running).
// It is the only Sim entry point that is safe to call from a foreign
// goroutine, and exists so external controllers (job cancellation, a
// control API) can mutate simulation state without racing the
// single-threaded kernel. fn runs with the full rights of the scheduler:
// it may Spawn and Kill procs. Inject reports whether the thunk was
// accepted; it returns false once the simulation has shut down. An
// accepted thunk runs only if the scheduler reaches another boundary, so
// callers must tolerate thunks posted in the run's final instants being
// dropped.
func (s *Sim) Inject(fn func()) bool {
	s.injMu.Lock()
	defer s.injMu.Unlock()
	if s.injClosed {
		return false
	}
	s.injected = append(s.injected, fn)
	s.injPending.Store(int32(len(s.injected)))
	return true
}

// drainInjected runs every pending injected thunk in post order. Called
// only from the scheduler between events.
func (s *Sim) drainInjected() {
	for s.injPending.Load() > 0 {
		s.injMu.Lock()
		fns := s.injected
		s.injected = nil
		s.injPending.Store(0)
		s.injMu.Unlock()
		for _, fn := range fns {
			fn()
		}
	}
}

// Kill tears down a proc that has not finished: its goroutine unwinds via
// the kill sentinel (running its defers) and the proc is marked done, with
// the live count adjusted so Run's termination condition stays correct.
// Pending timers and waiter-list entries for the proc become no-ops.
// Kill must run in scheduler context — from an Inject thunk or between
// Run calls — never from a running proc.
func (s *Sim) Kill(p *Proc) {
	if p.sim != s || p.state == stateDone {
		return
	}
	if s.current != nil {
		panic("sim: Kill called while a proc is running; use Inject")
	}
	s.unwind(p)
	s.finish(p)
}

// Run executes the simulation until every Proc has finished. It returns an
// error if a Proc panicked or if the simulation deadlocked (some Procs are
// blocked but no timer can wake anyone up). After Run returns, all remaining
// Proc goroutines have been torn down.
func (s *Sim) Run() error {
	defer s.shutdown()
	if err := s.drive(); err != nil || s.live == 0 {
		return err
	}
	if s.timers.len() > 0 {
		return &TimeoutError{Limit: time.Duration(s.maxTime)}
	}
	return s.deadlockError()
}

// drive runs the procs pick chooses, and the injected thunks, until pick
// has nothing left to run; it returns the failure, if a proc panicked.
func (s *Sim) drive() error {
	for {
		if p := s.pick(); p != nil {
			s.runProc(p)
		} else if s.injPending.Load() > 0 {
			s.drainInjected()
		} else {
			return s.failure
		}
	}
}

// pickRun is Run's scheduling policy.
func (s *Sim) pickRun() *Proc {
	for {
		if s.injPending.Load() > 0 || s.failure != nil {
			return nil
		}
		// Drain ready Procs before testing live: the last non-daemon Proc's
		// exit may leave daemons woken by final deliveries — a sink holding
		// a just-handed staging buffer mid-transfer. Running them to their
		// next block point (same virtual instant; timers below still never
		// fire once nothing is live) lets those handoffs finish so
		// end-of-run resource accounting balances.
		if p := s.popReady(); p != nil {
			return p
		}
		if s.live == 0 || s.timers.len() == 0 {
			return nil
		}
		t := s.timers.peek()
		if t.at < s.now {
			panic("sim: timer in the past")
		}
		if s.maxTime > 0 && t.at > s.maxTime {
			return nil
		}
		s.timers.pop()
		s.now = t.at
		s.unblock(t.p)
	}
}

// popReady dequeues the first ready proc that is not done (a killed proc
// may still sit in the queue), or returns nil once the queue is empty.
func (s *Sim) popReady() *Proc {
	for len(s.ready) > 0 {
		p := s.ready[0]
		s.ready = s.ready[1:]
		if p.state != stateDone {
			return p
		}
	}
	return nil
}

// TimeoutError reports that the virtual clock exceeded the SetMaxTime limit.
type TimeoutError struct{ Limit time.Duration }

// Error describes the exceeded virtual-time limit.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sim: virtual time exceeded limit %v", e.Limit)
}

// RunFor executes the simulation like Run but stops (successfully) once the
// virtual clock would pass the deadline, leaving remaining procs un-run.
// It is intended for driving open-ended workloads in tests.
func (s *Sim) RunFor(deadline time.Duration) error {
	defer s.shutdown()
	s.pick = func() *Proc {
		for {
			if s.injPending.Load() > 0 || s.failure != nil || s.live == 0 {
				return nil
			}
			if p := s.popReady(); p != nil {
				return p
			}
			if s.timers.len() == 0 || s.timers.peek().at > int64(deadline) {
				return nil
			}
			t := s.timers.pop()
			s.now = t.at
			s.unblock(t.p)
		}
	}
	if err := s.drive(); err != nil || s.live == 0 || s.timers.len() > 0 {
		return err
	}
	return s.deadlockError()
}

// unwind kills p in scheduler context. A proc that never ran is simply
// marked done; a parked one is woken with no current proc, so its
// goroutine unwinds through the kill sentinel, running its defers, and
// hands back.
func (s *Sim) unwind(p *Proc) {
	if p.wake == nil {
		p.state = stateDone
		return
	}
	p.wake <- struct{}{}
	<-s.driverCh
}

// shutdown kills every proc still parked and reaps the idle workers, so
// no goroutine outlives the run.
func (s *Sim) shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.injMu.Lock()
	s.injClosed = true
	s.injected = nil
	s.injPending.Store(0)
	s.injMu.Unlock()
	for _, p := range s.procs {
		if p.state == stateDone || p.state == stateRunning {
			continue
		}
		s.unwind(p)
	}
	for q := s.idle; q != nil; q = q.nextIdle {
		q.wake <- struct{}{}
	}
	s.idle = nil
}

// deadlockError builds a diagnostic listing every blocked Proc.
func (s *Sim) deadlockError() error {
	var blocked []string
	for _, p := range s.procs {
		if p.state == stateBlocked {
			blocked = append(blocked, fmt.Sprintf("%s: %s", p.Name(), p.blockReason()))
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: time.Duration(s.now), Blocked: blocked}
}

// DeadlockError reports that the simulation cannot make progress.
type DeadlockError struct {
	Time    time.Duration
	Blocked []string
}

// Error lists the blocked procs at the deadlock point.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d procs blocked: %v", e.Time, len(e.Blocked), e.Blocked)
}

// PanicError wraps a panic raised inside a Proc.
type PanicError struct {
	Proc  string
	Value any
	Stack string
}

// Error names the panicking proc and the panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", e.Proc, e.Value)
}

// timer is a pending wakeup.
type timer struct {
	at  int64
	seq uint64
	p   *Proc
}

// timerHeap is a binary min-heap ordered by (at, seq).
type timerHeap struct {
	ts []timer
}

func (h *timerHeap) len() int { return len(h.ts) }

// push sifts up with hold-and-shift: the new timer is written exactly once
// at its final slot instead of swapping at every level.
func (h *timerHeap) push(t timer) {
	if h.ts == nil {
		h.ts = make([]timer, 0, 64)
	}
	h.ts = append(h.ts, t)
	i := len(h.ts) - 1
	for i > 0 {
		parent := (i - 1) / 2
		pt := h.ts[parent]
		if t.at > pt.at || (t.at == pt.at && t.seq > pt.seq) {
			break
		}
		h.ts[i] = pt
		i = parent
	}
	h.ts[i] = t
}

func (h *timerHeap) peek() timer { return h.ts[0] }

// pop sifts down with hold-and-shift, moving the displaced tail element
// directly to its final slot.
func (h *timerHeap) pop() timer {
	top := h.ts[0]
	last := len(h.ts) - 1
	t := h.ts[last]
	h.ts = h.ts[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := -1
		st := t
		if l < len(h.ts) {
			if lt := h.ts[l]; lt.at < st.at || (lt.at == st.at && lt.seq < st.seq) {
				smallest, st = l, lt
			}
		}
		if r < len(h.ts) {
			if rt := h.ts[r]; rt.at < st.at || (rt.at == st.at && rt.seq < st.seq) {
				smallest, st = r, rt
			}
		}
		if smallest < 0 {
			break
		}
		h.ts[i] = st
		i = smallest
	}
	h.ts[i] = t
	return top
}
