package sim

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// progWorld is the shared state one generated program's procs contend
// for on one Sim: events fired by a daemon, a channel and a queue drained
// by daemons, a semaphore, and a digest of every proc step in run order.
type progWorld struct {
	s      *Sim
	sh     *Shard // nil unless the program runs sharded
	peers  []*progWorld
	seed   int64
	evs    []*Event
	ch     *Chan[int]
	q      *Queue[int]
	sem    *Semaphore
	perms  int
	procs  []*Proc
	nprocs int
	seq    uint64
	h      hash.Hash64
}

// record folds one proc step — who ran, at what virtual time, doing
// what — into the world's dispatch-order digest.
func (w *progWorld) record(p *Proc, what byte) {
	var b [64]byte
	out := append(b[:0], p.Name()...)
	out = append(out, '@')
	out = strconv.AppendInt(out, int64(p.Now()), 10)
	out = append(out, what, '\n')
	w.h.Write(out)
}

func newProgWorld(s *Sim, seed int64) *progWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &progWorld{s: s, seed: seed, h: fnv.New64a()}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		w.evs = append(w.evs, s.NewEvent("ev"+strconv.Itoa(i)))
	}
	w.ch = NewChan[int](s, "ch", rng.Intn(3))
	w.q = NewQueue[int](s, "q")
	w.perms = 1 + rng.Intn(3)
	w.sem = s.NewSemaphore("sem", w.perms)
	s.SpawnDaemon("firer", func(p *Proc) {
		w.record(p, 'F')
		for _, i := range rng.Perm(len(w.evs)) {
			p.Sleep(time.Duration(rng.Intn(6)) * time.Microsecond)
			w.evs[i].Fire()
			w.record(p, 'f')
		}
	})
	s.SpawnDaemon("chan-sink", func(p *Proc) {
		for {
			if _, ok := w.ch.Recv(p); !ok {
				return
			}
			w.record(p, 'r')
			p.Sleep(time.Duration(rng.Intn(3)) * time.Microsecond)
		}
	})
	s.SpawnDaemon("queue-sink", func(p *Proc) {
		for {
			w.q.Get(p)
			w.record(p, 'g')
			if rng.Intn(2) == 0 {
				p.Yield()
			}
		}
	})
	return w
}

// spawnScript starts one generated proc: a random mix of sleeps, yields,
// event waits and fires, channel and queue traffic, semaphore holds,
// child spawns joined through a WaitGroup, injected kills of earlier
// procs and (sharded) cross-shard arrivals, all drawn from a private rng
// so the script depends only on the seed and the proc's number.
func (w *progWorld) spawnScript(depth int, wg *WaitGroup) *Proc {
	n := w.nprocs
	w.nprocs++
	rng := rand.New(rand.NewSource(w.seed*7919 + int64(n)))
	p := w.s.SpawnID("p", n, func(p *Proc) {
		if wg != nil {
			defer wg.Done() // runs on a kill's unwind too
		}
		w.record(p, 'S')
		steps := 2 + rng.Intn(6)
		for k := 0; k < steps; k++ {
			op := rng.Intn(11)
			switch op {
			case 0:
				p.Sleep(time.Duration(rng.Intn(4)) * time.Microsecond)
			case 1:
				p.Yield()
			case 2:
				w.evs[rng.Intn(len(w.evs))].Wait(p)
			case 3:
				w.evs[rng.Intn(len(w.evs))].Fire()
			case 4:
				w.ch.Send(p, n)
			case 5:
				if !w.ch.TrySend(n) {
					w.ch.TryRecv()
				}
			case 6:
				w.q.Put(n)
			case 7:
				permits := 1 + rng.Intn(w.perms)
				w.sem.Acquire(p, permits)
				func() {
					defer w.sem.Release(permits)
					p.Sleep(time.Duration(rng.Intn(3)) * time.Microsecond)
				}()
			case 8:
				if depth < 2 {
					children := 1 + rng.Intn(3)
					wg := w.s.NewWaitGroup("wg", children)
					for c := 0; c < children; c++ {
						w.spawnScript(depth+1, wg)
					}
					wg.Wait(p)
				}
			case 9:
				if w.sh == nil && len(w.procs) > 0 && rng.Intn(3) == 0 {
					victim := w.procs[rng.Intn(len(w.procs))]
					w.s.Inject(func() { w.s.Kill(victim) })
				}
			case 10:
				if w.sh != nil {
					w.seq++
					dst := w.peers[rng.Intn(len(w.peers))]
					lat := w.sh.coord.lookahead + int64(rng.Intn(3))*int64(time.Microsecond)
					src := w.sh.ID()*1000 + n
					// Draw here: the arrival runs on dst's shard, which
					// must not touch this proc's rng.
					spawn := rng.Intn(2) == 0
					w.sh.PostArrival(p.Now()+time.Duration(lat), dst.sh.ID(), src, w.seq, "arr", func(a *Proc) {
						dst.record(a, 'A')
						dst.q.Put(n)
						if spawn {
							dst.spawnScript(2, nil)
						}
					})
				}
			}
			w.record(p, byte('0'+op))
		}
	})
	w.procs = append(w.procs, p)
	return p
}

// runProgram runs seeded program seed in one of three drivers — "run"
// (Sim.Run), "runfor" (Sim.RunFor, cut mid-program so shutdown kills
// parked procs) or "sharded" (two shards exchanging arrivals) — and
// returns its dispatch-order digest, which also folds in the run's error
// and final clock.
func runProgram(seed int64, driver string) uint64 {
	rng := rand.New(rand.NewSource(seed))
	nprocs := 2 + rng.Intn(8)
	var worlds []*progWorld
	var err error
	switch driver {
	case "run", "runfor":
		s := New()
		s.SetMaxTime(time.Second)
		w := newProgWorld(s, seed)
		worlds = append(worlds, w)
		for i := 0; i < nprocs; i++ {
			w.spawnScript(0, nil)
		}
		if driver == "run" {
			err = s.Run()
		} else {
			err = s.RunFor(time.Duration(2+rng.Intn(8)) * time.Microsecond)
		}
	case "sharded":
		sc := NewSharded(2)
		sc.SetLookahead(time.Microsecond)
		sc.SetMaxTime(time.Second)
		for i := 0; i < sc.Shards(); i++ {
			w := newProgWorld(sc.Shard(i).Sim(), seed*31+int64(i))
			w.sh = sc.Shard(i)
			worlds = append(worlds, w)
		}
		for _, w := range worlds {
			w.peers = worlds
			for i := 0; i < nprocs; i++ {
				w.spawnScript(0, nil)
			}
		}
		err = sc.Run()
	}
	h := fnv.New64a()
	for _, w := range worlds {
		fmt.Fprintf(h, "%x %v|", w.h.Sum64(), w.s.Now())
	}
	if err != nil {
		var de *DeadlockError
		if errors.As(err, &de) {
			fmt.Fprintf(h, "deadlock %v %v", de.Time, de.Blocked)
		} else {
			fmt.Fprintf(h, "%v", err)
		}
	}
	return h.Sum64()
}

// TestDispatchOrderPinned pins the exact order in which the kernel
// dispatches proc steps, across seeded random programs on every driver.
// The digests come from the earlier kernel, which routed every switch
// through a scheduler goroutine, so they show the direct-handoff kernel
// makes the same decisions. Any scheduling change — not just a
// virtual-time change — moves them.
func TestDispatchOrderPinned(t *testing.T) {
	want := map[string][]uint64{
		"run": {
			0xac8d8ebeec3b4e05, 0x1bf147a352d58c29, 0x16a8d17a830317cc, 0x4ace2e6c6b4d28ce,
			0x686add13036be197, 0x5d2434225a2b8a63, 0x9910a8535626c15a, 0xce91b020e09f089d,
			0x707ddfc600b9a4c8, 0x476f9c6f28a5ec30, 0xc7dd89e4f9fb01b7, 0x58eba135dd1618ec,
			0x710b0452ad34fe4e, 0x650cfa6bee3eb7b8, 0x774dbe2b192a942, 0xb792d635fe469e3d,
		},
		"runfor": {
			0xac8d8ebeec3b4e05, 0x1847c4fe94bed548, 0xce4aebd858c92d9, 0xddf85ad768d09208,
			0x686add13036be197, 0x5d2434225a2b8a63, 0xd8875bad5b8ca308, 0xce91b020e09f089d,
			0x3bddf85276070698, 0xac097827a5df9324, 0xc7dd89e4f9fb01b7, 0x58eba135dd1618ec,
			0xcf4217e0eab553c3, 0x575eb08f7e82f3f7, 0x774dbe2b192a942, 0xe7b9a9326e839c52,
		},
		"sharded": {
			0xd487c75dca2b8489, 0x93d536e9bb7945e0, 0xf0ad1ac9fe44a1dc, 0xd7b6b8dbd17ae3a5,
			0x62314727a419cdfc, 0x8c9d10bfd4a46e42, 0x3c557ebca68a104c, 0xe8c2d82c859c47c,
			0xd3d42cdd9fb56731, 0x7f5796f0d376486b, 0x2c11d2676a36b11b, 0xbd04328a4333abe8,
			0x4f606142d2c1ee90, 0x47c1f1e490e0b4b, 0xcaa22852c8bc9ccc, 0xcf2be689e421d27e,
		},
	}
	for _, driver := range []string{"run", "runfor", "sharded"} {
		var got []uint64
		for seed := int64(1); seed <= 16; seed++ {
			got = append(got, runProgram(seed, driver))
		}
		if fmt.Sprint(got) != fmt.Sprint(want[driver]) {
			t.Errorf("%s digests:\n got  %#v\n want %#v", driver, got, want[driver])
		}
	}
}

// TestArrivalOnFreedWorker: a same-shard arrival delivered by the picker
// running on the goroutine of a proc that has just finished is bound to
// that very goroutine, which must start it in place rather than send on
// its own channel (a self-deadlock).
func TestArrivalOnFreedWorker(t *testing.T) {
	sc := NewSharded(1)
	sc.SetLookahead(time.Millisecond)
	sh := sc.Shard(0)
	var ranAt time.Duration
	sh.Sim().Spawn("poster", func(p *Proc) {
		sh.PostArrival(p.Now()+10*time.Nanosecond, 0, 0, 1, "arr", func(a *Proc) {
			ranAt = a.Now()
		})
	})
	if err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	if ranAt != 10*time.Nanosecond {
		t.Fatalf("arrival ran at %v, want 10ns", ranAt)
	}
	st := sh.Sim().Stats()
	if st.GoroutinesStarted != 1 || st.GoroutinesReused != 1 || st.DirectHandoffs != 1 {
		t.Fatalf("stats %+v: want the arrival started in place on the poster's goroutine", st)
	}
}

// TestKillFinishedProcAfterReuse: once a finished proc's goroutine runs
// another proc, killing the finished one is still a no-op — it must not
// wake or unwind the goroutine's new proc.
func TestKillFinishedProcAfterReuse(t *testing.T) {
	s := New()
	first := s.Spawn("first", func(p *Proc) {})
	var reuserDone bool
	s.Spawn("reuser", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		reuserDone = true
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Inject(func() { s.Kill(first) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !reuserDone || s.Now() != 2*time.Millisecond {
		t.Fatalf("reuser done=%v at %v: the kill of a finished proc reached its goroutine's new proc", reuserDone, s.Now())
	}
	if st := s.Stats(); st.GoroutinesStarted != 2 || st.GoroutinesReused != 1 {
		t.Fatalf("stats %+v: want reuser on first's goroutine", st)
	}
}

// TestInjectKillBetweenHandoffs: two procs that hand control straight to
// each other never return to the driver on their own; a thunk injected
// from a foreign goroutine still runs in scheduler context at the next
// switch, and its kills unwind both procs.
func TestInjectKillBetweenHandoffs(t *testing.T) {
	s := New()
	ping, pong := NewQueue[int](s, "ping"), NewQueue[int](s, "pong")
	var rounds atomic.Int64
	var unwound int
	a := s.Spawn("a", func(p *Proc) {
		defer func() { unwound++ }()
		for {
			ping.Put(1)
			pong.Get(p)
			rounds.Add(1)
		}
	})
	b := s.Spawn("b", func(p *Proc) {
		defer func() { unwound++ }()
		for {
			ping.Get(p)
			pong.Put(1)
		}
	})
	var thunkSawProc bool
	go func() {
		for rounds.Load() < 100 {
			runtime.Gosched()
		}
		s.Inject(func() {
			thunkSawProc = s.current != nil
			s.Kill(a)
			s.Kill(b)
		})
	}()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if thunkSawProc {
		t.Error("injected thunk ran while a proc was current")
	}
	if unwound != 2 {
		t.Errorf("%d procs unwound, want 2", unwound)
	}
	if st := s.Stats(); st.DriverReturns > 4 {
		t.Errorf("stats %+v: procs went back to the driver between handoffs", st)
	}
}

// TestPanicAfterHandoff: a proc that panics on a reused goroutine, reached
// by a direct handoff while others are parked, still fails Run with a
// PanicError naming it.
func TestPanicAfterHandoff(t *testing.T) {
	s := New()
	never := s.NewEvent("never")
	s.Spawn("parked", func(p *Proc) { never.Wait(p) })
	s.Spawn("quick", func(p *Proc) {})
	s.Spawn("bad", func(p *Proc) {
		p.Yield()
		panic("boom")
	})
	err := s.Run()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Proc != "bad" || pe.Value != "boom" {
		t.Fatalf("got %v, want PanicError from bad", err)
	}
	if st := s.Stats(); st.GoroutinesReused == 0 || st.DirectHandoffs == 0 {
		t.Fatalf("stats %+v: bad did not run on a reused goroutine after a handoff", st)
	}
}

// TestGoroutinesReaped: every worker goroutine, parked or idle, is gone
// once Run, RunFor, a failed run or Sharded.Run returns.
func TestGoroutinesReaped(t *testing.T) {
	spawnMix := func(s *Sim) {
		never := s.NewEvent("never")
		for i := 0; i < 8; i++ {
			s.SpawnID("w", i, func(p *Proc) { p.Sleep(time.Duration(i) * time.Microsecond) })
			s.SpawnDaemonID("d", i, func(p *Proc) { never.Wait(p) })
		}
		s.Spawn("exit", func(p *Proc) { runtime.Goexit() })
	}
	cases := map[string]func() error{
		"Run": func() error {
			s := New()
			spawnMix(s)
			return s.Run()
		},
		"RunFor": func() error {
			s := New()
			spawnMix(s)
			return s.RunFor(3 * time.Microsecond)
		},
		"failed": func() error {
			s := New()
			spawnMix(s)
			s.Spawn("bad", func(p *Proc) { p.Sleep(2 * time.Microsecond); panic("boom") })
			if s.Run() == nil {
				return errors.New("panic not reported")
			}
			return nil
		},
		"Sharded": func() error {
			sc := NewSharded(2)
			sc.SetLookahead(time.Microsecond)
			for i := 0; i < 2; i++ {
				spawnMix(sc.Shard(i).Sim())
			}
			return sc.Run()
		},
	}
	for name, run := range cases {
		base := runtime.NumGoroutine()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A reaped worker may still be returning from its last receive.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the run, %d before", name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestKillRecoveringProc: a proc that recovers every panic still dies when
// killed — its swallowed unwind hands control back to Kill instead of
// running on — and it is counted out of the live set once.
func TestKillRecoveringProc(t *testing.T) {
	s := New()
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { recover() }()
		p.Sleep(time.Hour)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Inject(func() { s.Kill(victim) })
	})
	var done bool
	s.Spawn("bystander", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || s.Now() != 2*time.Millisecond {
		t.Fatalf("bystander done=%v, run ended at %v: want done at 2ms", done, s.Now())
	}
}
