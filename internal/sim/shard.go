package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sharded runs several Sims (one per Shard) in parallel under conservative
// lookahead synchronization, the classic parallel-discrete-event recipe
// (Chandy/Misra/Bryant): all shards share a window [W, W+L) where W is the
// earliest pending event anywhere and L is the lookahead — the minimum
// latency of any cross-shard interaction. Within a window every shard
// advances independently on its own goroutine; at the window edge all
// shards barrier and exchange the cross-shard events generated inside it.
//
// Correctness requires that every interaction between procs on different
// shards is posted through Shard.PostArrival with a delivery time at least
// L past the time the posting proc observed, which holds by construction
// when L is the minimum cross-shard wire latency of the modeled fabric.
//
// Determinism across shard counts (the property the scale CI gate pins:
// -shards 1 must be bit-identical to -shards N) comes from two rules:
//
//  1. Arrivals are totally ordered by (virtual time, source id, per-source
//     sequence) — shard-count-invariant keys, never by shard id or posting
//     order, which both change with the shard count.
//  2. At equal virtual time a shard delivers arrivals before firing local
//     timers, uniformly at every shard count.
//
// Per-node event order is then invariant by induction: a node's procs only
// interact with other nodes through timestamped arrivals, and the FIFO
// ready queue preserves the relative order of one node's procs regardless
// of how other nodes' procs interleave between them.
type Sharded struct {
	shards    []*Shard
	lookahead int64
	maxTime   int64
	elapsed   int64
}

// Shard is one partition of a sharded simulation: it owns a private Sim
// (event heap, clock, procs) plus the arrival heap and outbox used to
// exchange cross-shard events at window barriers.
type Shard struct {
	coord *Sharded
	id    int
	sim   *Sim

	// arrivals holds cross-node deliveries routed to this shard, ordered
	// by (at, src, seq); only the coordinator pushes (at barriers) and
	// only this shard's window loop pops.
	arrivals arrivalHeap
	// outbox buffers arrivals posted during the current window; it is
	// touched only by this shard's goroutine mid-window and drained by
	// the coordinator at the barrier.
	outbox []arrival
	// windowEnd is the exclusive upper bound of the window currently (or
	// last) executed; PostArrival uses it to detect lookahead violations.
	windowEnd int64
}

// arrival is one cross-shard event delivery: at time at, spawn a proc
// running fn on the destination shard. src and seq form the deterministic
// tiebreak for simultaneous arrivals (see the ordering rule on Sharded).
type arrival struct {
	at   int64
	src  int
	seq  uint64
	dst  int // destination shard index
	name ident
	fn   func(p *Proc)
}

// NewSharded creates a sharded simulation with n empty shards.
func NewSharded(n int) *Sharded {
	if n <= 0 {
		panic("sim: NewSharded with non-positive shard count")
	}
	sc := &Sharded{shards: make([]*Shard, n)}
	for i := range sc.shards {
		sh := &Shard{coord: sc, id: i, sim: New()}
		sh.sim.pick = sh.pickWindow
		sc.shards[i] = sh
	}
	return sc
}

// Shards returns the number of shards.
func (sc *Sharded) Shards() int { return len(sc.shards) }

// Shard returns shard i.
func (sc *Sharded) Shard(i int) *Shard { return sc.shards[i] }

// SetLookahead installs the conservative lookahead window width: the
// minimum virtual-time distance of any cross-shard interaction. Run panics
// if no positive lookahead was configured.
func (sc *Sharded) SetLookahead(d time.Duration) {
	if d <= 0 {
		panic("sim: non-positive lookahead")
	}
	sc.lookahead = int64(d)
}

// SetMaxTime installs a virtual-time ceiling, as Sim.SetMaxTime does for a
// plain simulation: Run fails with a TimeoutError once every pending event
// lies beyond it.
func (sc *Sharded) SetMaxTime(d time.Duration) { sc.maxTime = int64(d) }

// Elapsed returns, after Run, the virtual time at which the last
// non-daemon proc finished — the sharded equivalent of Sim.Now at the end
// of a plain run. Daemon-only activity (poll loops racing to the window
// edge) deliberately does not count, so the value is identical for every
// shard count.
func (sc *Sharded) Elapsed() time.Duration { return time.Duration(sc.elapsed) }

// ID returns the shard's index within its Sharded coordinator.
func (sh *Shard) ID() int { return sh.id }

// Sim returns the shard's private simulation; all procs, queues and
// resources belonging to this shard's partition are created on it.
func (sh *Shard) Sim() *Sim { return sh.sim }

// PostArrival schedules fn to run as a fresh proc on shard dstShard at
// virtual time at. It must be called from a proc running on this shard.
// src is a shard-count-invariant source identifier (a node id) and seq a
// monotonically increasing per-source counter; together with at they form
// the total delivery order, so equal-time arrivals are delivered
// identically at every shard count.
//
// A cross-shard at must lie at or beyond the current window's edge — i.e.
// at least the configured lookahead past the time the posting proc
// observed — or PostArrival panics, because delivering it this window on
// another shard that already advanced past it would break causality. A
// same-shard delivery carries no such bound (two hosts under one fat-tree
// edge switch are closer than the cheapest cross-shard path) and goes
// straight into this shard's own arrival heap instead of the outbox; the
// heap's (at, src, seq) order makes delivery identical either way, so the
// shortcut is invisible to the determinism gate.
func (sh *Shard) PostArrival(at time.Duration, dstShard, src int, seq uint64, prefix string, fn func(p *Proc)) {
	at64 := int64(at)
	if dstShard < 0 || dstShard >= len(sh.coord.shards) {
		panic(fmt.Sprintf("sim: PostArrival to unknown shard %d", dstShard))
	}
	a := arrival{
		at:   at64,
		src:  src,
		seq:  seq,
		dst:  dstShard,
		name: ident{prefix: prefix, id: src},
		fn:   fn,
	}
	if dstShard == sh.id {
		if at64 < sh.sim.now {
			panic(fmt.Sprintf("sim: same-shard arrival at %v before current time %v",
				at, time.Duration(sh.sim.now)))
		}
		sh.arrivals.push(a)
		return
	}
	if at64 < sh.windowEnd {
		panic(fmt.Sprintf("sim: arrival at %v inside current window ending %v: cross-shard latency below lookahead",
			at, time.Duration(sh.windowEnd)))
	}
	sh.outbox = append(sh.outbox, a)
}

// nextEventAt returns the earliest virtual time at which this shard has
// work (a ready proc, a timer, or a pending arrival), or -1 if idle.
func (sh *Shard) nextEventAt() int64 {
	if len(sh.sim.ready) > 0 {
		return sh.sim.now
	}
	at := int64(-1)
	if sh.sim.timers.len() > 0 {
		at = sh.sim.timers.peek().at
	}
	if sh.arrivals.len() > 0 {
		if a := sh.arrivals.peek().at; at < 0 || a < at {
			at = a
		}
	}
	return at
}

// runWindow executes this shard's events with virtual time strictly below
// end.
func (sh *Shard) runWindow(end int64) {
	sh.windowEnd = end
	for p := sh.sim.pick(); p != nil; p = sh.sim.pick() {
		sh.sim.runProc(p)
	}
}

// pickWindow is the shard's scheduling policy inside the window ending at
// windowEnd. At equal timestamps arrivals are delivered before local
// timers fire (the cross-shard ordering rule); ready procs always run
// first because they hold the current time.
func (sh *Shard) pickWindow() *Proc {
	s := sh.sim
	for {
		if s.failure != nil {
			return nil
		}
		if p := s.popReady(); p != nil {
			return p
		}
		tAt, aAt := int64(-1), int64(-1)
		if s.timers.len() > 0 {
			tAt = s.timers.peek().at
		}
		if sh.arrivals.len() > 0 {
			aAt = sh.arrivals.peek().at
		}
		if aAt >= 0 && (tAt < 0 || aAt <= tAt) {
			if aAt >= sh.windowEnd {
				return nil
			}
			a := sh.arrivals.pop()
			if a.at < s.now {
				panic("sim: arrival in the past")
			}
			s.now = a.at
			s.spawn(a.name, a.fn, false)
			continue
		}
		if tAt < 0 || tAt >= sh.windowEnd {
			return nil
		}
		t := s.timers.pop()
		if t.at < s.now {
			panic("sim: timer in the past")
		}
		s.now = t.at
		s.unblock(t.p)
	}
}

// Run executes all shards to completion. Each iteration merges the
// outboxes filled during the previous window into the destination shards'
// arrival heaps, checks for failure/termination/deadlock/timeout, computes
// the next window [W, W+lookahead) from the globally earliest pending
// event, and runs every shard's window on its own goroutine. It returns
// the first failure (lowest shard index), a DeadlockError aggregating
// blocked procs across all shards, a TimeoutError if the clock would pass
// SetMaxTime, or nil once every non-daemon proc has finished and no
// arrivals remain in flight.
func (sc *Sharded) Run() error {
	if sc.lookahead <= 0 {
		panic("sim: Sharded.Run without SetLookahead")
	}
	defer func() {
		for _, sh := range sc.shards {
			sh.sim.shutdown()
		}
	}()
	for {
		for _, sh := range sc.shards {
			for _, a := range sh.outbox {
				sc.shards[a.dst].arrivals.push(a)
			}
			sh.outbox = sh.outbox[:0]
		}
		for _, sh := range sc.shards {
			if sh.sim.failure != nil {
				sc.recordElapsed()
				return sh.sim.failure
			}
		}
		live, pending := 0, 0
		for _, sh := range sc.shards {
			live += sh.sim.live
			pending += sh.arrivals.len()
		}
		if live == 0 && pending == 0 {
			sc.recordElapsed()
			return nil
		}
		w := int64(-1)
		for _, sh := range sc.shards {
			if at := sh.nextEventAt(); at >= 0 && (w < 0 || at < w) {
				w = at
			}
		}
		if w < 0 {
			sc.recordElapsed()
			return sc.deadlockError()
		}
		if sc.maxTime > 0 && w > sc.maxTime {
			sc.recordElapsed()
			return &TimeoutError{Limit: time.Duration(sc.maxTime)}
		}
		end := w + sc.lookahead
		if sc.maxTime > 0 && end > sc.maxTime+1 {
			// Clamp so no event beyond the ceiling executes; the next
			// barrier then reports the timeout deterministically.
			end = sc.maxTime + 1
		}
		var wg sync.WaitGroup
		for _, sh := range sc.shards {
			wg.Add(1)
			go func(sh *Shard) {
				defer wg.Done()
				sh.runWindow(end)
			}(sh)
		}
		wg.Wait()
	}
}

// recordElapsed captures the shard-count-invariant elapsed time: the max
// over shards of the moment their last non-daemon proc finished.
func (sc *Sharded) recordElapsed() {
	for _, sh := range sc.shards {
		if sh.sim.idleAt > sc.elapsed {
			sc.elapsed = sh.sim.idleAt
		}
	}
}

// deadlockError aggregates blocked procs across every shard into one
// diagnostic, sorted for determinism.
func (sc *Sharded) deadlockError() error {
	var blocked []string
	var at int64
	for _, sh := range sc.shards {
		for _, p := range sh.sim.procs {
			if p.state == stateBlocked {
				blocked = append(blocked, fmt.Sprintf("%s: %s", p.Name(), p.blockReason()))
			}
		}
		if sh.sim.now > at {
			at = sh.sim.now
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Time: time.Duration(at), Blocked: blocked}
}

// arrivalHeap is a binary min-heap of arrivals ordered by (at, src, seq),
// mirroring timerHeap's hold-and-shift implementation.
type arrivalHeap struct {
	as []arrival
}

func (h *arrivalHeap) len() int { return len(h.as) }

// arrivalLess orders arrivals by delivery time, then source id, then
// per-source sequence — the cross-shard determinism key.
func arrivalLess(a, b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (h *arrivalHeap) push(a arrival) {
	if h.as == nil {
		h.as = make([]arrival, 0, 64)
	}
	h.as = append(h.as, a)
	i := len(h.as) - 1
	for i > 0 {
		parent := (i - 1) / 2
		pa := h.as[parent]
		if arrivalLess(pa, a) {
			break
		}
		h.as[i] = pa
		i = parent
	}
	h.as[i] = a
}

func (h *arrivalHeap) peek() arrival { return h.as[0] }

func (h *arrivalHeap) pop() arrival {
	top := h.as[0]
	last := len(h.as) - 1
	a := h.as[last]
	h.as = h.as[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := -1
		sa := a
		if l < len(h.as) && arrivalLess(h.as[l], sa) {
			smallest, sa = l, h.as[l]
		}
		if r < len(h.as) && arrivalLess(h.as[r], sa) {
			smallest, sa = r, h.as[r]
		}
		if smallest < 0 {
			break
		}
		h.as[i] = sa
		i = smallest
	}
	h.as[i] = a
	return top
}
