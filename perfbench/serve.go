package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dcgn/internal/core"
	"dcgn/internal/loadgen"
	"dcgn/internal/transport"
)

const (
	// serveRate is the offered load, well under the live backend's knee
	// (about 1000 jobs/s on 4 vCPUs, EXPERIMENTS.md), so latency measures
	// the serving path rather than a growing backlog.
	serveRate = 300.0
	// serveDrain bounds the wait for the last completions after the last
	// arrival; a job still missing then counts as failed.
	serveDrain = 30 * time.Second
)

// completion is what the runtime's OnJobDone callback reports.
type completion struct {
	at time.Time
	st core.JobStatus
}

// serveInstance is the serve-live workload: a live Runtime and the seeded
// arrival schedule. Jobs are built from arrivals only.
type serveInstance struct {
	rt       *core.Runtime
	arrivals []loadgen.Arrival
	// pool holds the seeded payload bytes; message (job, iteration, m)
	// sends a slice of it chosen by payloadAt.
	pool []byte
	// done receives the completions of the phase that is running. The
	// callback is installed once, before the first Submit.
	done atomic.Pointer[chan completion]
}

// newServe generates the seeded inputs, outside every timed region.
func newServe(seed int64, window time.Duration) (*serveInstance, error) {
	classes, err := loadgen.Presets("mixed")
	if err != nil {
		return nil, err
	}
	arr := loadgen.GenArrivals(loadgen.Spec{
		Seed: seed, Rate: serveRate, Duration: window, Arrival: loadgen.ArrivalPoisson,
		Classes: classes, Nodes: size.serveNodes,
	})
	if len(arr) == 0 {
		return nil, errNoArrivals
	}
	maxSize := 0
	for _, a := range arr {
		maxSize = max(maxSize, a.Size)
	}
	pool := make([]byte, maxSize+64<<10)
	rand.New(rand.NewSource(seed)).Read(pool)
	return &serveInstance{arrivals: arr, pool: pool}, nil
}

// newRuntime is the program's set-up: a live Runtime of serveNodes nodes.
// setup_s times it.
func newRuntime() (*core.Runtime, error) {
	return core.NewRuntime(core.RuntimeConfig{
		Nodes:     size.serveNodes,
		Transport: transport.Config{Backend: transport.BackendLive},
	})
}

// start sets up the Runtime the phases submit to and installs the
// completion callback, before the first Submit.
func (s *serveInstance) start() error {
	rt, err := newRuntime()
	if err != nil {
		return err
	}
	s.rt = rt
	rt.SetOnJobDone(func(st core.JobStatus) {
		if ch := s.done.Load(); ch != nil {
			*ch <- completion{at: time.Now(), st: st}
		}
	})
	return nil
}

// stop closes the Runtime, once, and releases it.
func (s *serveInstance) stop() {
	if s.rt != nil {
		s.rt.Close()
		s.rt = nil
	}
}

// payloadAt is the payload of message m of iteration it of arrival i.
func (s *serveInstance) payloadAt(i, it, m, size int) []byte {
	off := (i*7919 + it*104729 + m*1299709) % (len(s.pool) - size + 1)
	return s.pool[off : off+size]
}

// serveJob builds arrival i's job: the fan-out/fan-in shape of loadgen's
// serving kernel (rank 0 scatters Fanout requests round-robin over the
// workers, each worker echoes every request, rank 0 gathers the replies),
// except that every error and every reply byte is checked and a failure
// marks the job bad instead of being dropped.
func (s *serveInstance) serveJob(i int, bad *atomic.Bool) *core.Job {
	a := s.arrivals[i]
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = a.Nodes, 1, 0
	cfg.Transport.Backend = transport.BackendLive
	cfg.MaxVirtualTime = serveDrain // the live backend's wall-clock watchdog
	job := core.NewJob(cfg)
	job.SetCPUKernel(func(c *core.CPUCtx) {
		workers := c.Size() - 1
		buf := make([]byte, a.Size)
		if c.Rank() == 0 {
			for it := 0; it < a.Iters; it++ {
				for m := 0; m < a.Fanout; m++ {
					if err := c.Send(1+m%workers, s.payloadAt(i, it, m, a.Size)); err != nil {
						bad.Store(true)
						return
					}
				}
				for m := 0; m < a.Fanout; m++ {
					st, err := c.Recv(1+m%workers, buf)
					if err != nil {
						bad.Store(true)
						return
					}
					// A wrong reply fails the job but the exchange goes on,
					// so the workers are not left blocked.
					if st.Bytes != a.Size || !bytes.Equal(buf, serveWant(s, i, it, m, a.Size)) {
						bad.Store(true)
					}
				}
			}
			return
		}
		mine := 0
		for m := 0; m < a.Fanout; m++ {
			if 1+m%workers == c.Rank() {
				mine++
			}
		}
		for it := 0; it < a.Iters; it++ {
			for m := 0; m < mine; m++ {
				st, err := c.Recv(0, buf)
				if err != nil || st.Bytes != a.Size {
					bad.Store(true)
					return
				}
				c.Compute(time.Duration(a.ServiceNs))
				if err := c.Send(0, buf); err != nil {
					bad.Store(true)
					return
				}
			}
		}
	})
	return job
}

// servePhase is one open-loop window's raw observations.
type servePhase struct {
	latMs, lateMs, runMs, admitMs, submitUs []float64
	reports                                 []core.Report
	attempted, failed                       int
	problems                                []string
	wall                                    time.Duration // first due time to last completion
	cpuNs                                   int64
}

// runServe offers every arrival at its due time from this goroutine and
// waits for the completions. Latency is timed from the due time, so a
// generator stall shows as latency of the requests behind it.
func (s *serveInstance) runServe(rec *recorder) servePhase {
	n := len(s.arrivals)
	var ph servePhase
	// One send per accepted job at most, and per job of the previous phase
	// that is still running.
	done := make(chan completion, 2*n)
	s.done.Store(&done)
	defer s.done.Store(nil)
	bad := make([]atomic.Bool, n)
	handles := make([]*core.JobHandle, n)
	due := make([]time.Time, n)
	ph.attempted = n

	cpu0 := cpuNs()
	start := time.Now()
	accepted := 0
	for i, a := range s.arrivals {
		job := s.serveJob(i, &bad[i])
		due[i] = start.Add(a.At())
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		h, err := s.rt.Submit(job, core.SubmitOpts{Tenant: a.Class, Weight: a.Weight})
		t1 := time.Now()
		ph.lateMs = append(ph.lateMs, ms(t0.Sub(due[i])))
		ph.submitUs = append(ph.submitUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if rec != nil {
			rec.add(spSubmit, -1, int32(i), int64(t0.Sub(rec.epoch)), int64(t1.Sub(rec.epoch)))
		}
		if err != nil {
			ph.fail("arrival %d: submit: %v", i, err) // ErrQueueFull is a shed request
			continue
		}
		handles[i] = h
		accepted++
	}

	// A job of the previous phase that finishes now also reports here; only
	// this phase's jobs count.
	mine := make(map[int]bool, accepted)
	for _, h := range handles {
		if h != nil {
			mine[h.ID()] = true
		}
	}
	byID := make(map[int]completion, accepted)
	timeout := time.After(time.Until(start.Add(s.arrivals[n-1].At()).Add(serveDrain)))
	var last time.Time
collect:
	for len(byID) < accepted {
		select {
		case c := <-done:
			if !mine[c.st.ID] {
				continue
			}
			byID[c.st.ID] = c
			if c.at.After(last) {
				last = c.at
			}
		case <-timeout:
			break collect
		}
	}
	ph.wall = last.Sub(start)
	ph.cpuNs = cpuNs() - cpu0

	for i, h := range handles {
		if h == nil {
			continue
		}
		c, ok := byID[h.ID()]
		if !ok {
			ph.fail("arrival %d: no completion within %v of the last arrival", i, serveDrain)
			continue
		}
		rep, err := h.Wait()
		switch {
		case err != nil:
			ph.fail("arrival %d: %v", i, err)
			continue
		case c.st.State != core.JobDone:
			ph.fail("arrival %d: finished %s", i, c.st.State)
			continue
		case bad[i].Load():
			ph.fail("arrival %d: a send, receive or reply check failed in the kernel", i)
			continue
		}
		p := part{name: "serve", report: rep}
		checkConservation(&p)
		if len(p.problems) > 0 {
			ph.fail("arrival %d: %s", i, p.problems[0])
			continue
		}
		ph.reports = append(ph.reports, rep)
		ph.latMs = append(ph.latMs, ms(c.at.Sub(due[i])))
		ph.runMs = append(ph.runMs, ms(c.st.FinishedAt-c.st.StartedAt))
		ph.admitMs = append(ph.admitMs, ms(c.st.StartedAt-c.st.SubmittedAt))
		if rec != nil {
			rec.add(spJob, -1, int32(i), int64(due[i].Sub(rec.epoch)), int64(c.at.Sub(rec.epoch)))
		}
	}
	return ph
}

func (ph *servePhase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.problems) < problemLimit {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

var errNoArrivals = errors.New("serve-live: the seed produced no arrivals")

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serveWant is the reply rank 0 expects for a message: the request,
// echoed. The benchmark's tests replace it to prove the check can fail.
var serveWant = func(s *serveInstance, i, it, m, size int) []byte {
	return s.payloadAt(i, it, m, size)
}
