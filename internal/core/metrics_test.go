package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dcgn/internal/device"
	"dcgn/internal/obs"
	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// TestMetricsHistograms exercises the registry end to end on both
// backends: a ping-pong plus barrier workload must populate the match-wait
// histogram (keyed by op/source/size class), the intake queue-depth
// histogram and the collective-accumulation wait, and the snapshot's
// quantile accessors must be coherent.
func TestMetricsHistograms(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		cfg := backendConfig(backend, 2, 1)
		cfg.Metrics = true
		job := NewJob(cfg)
		const iters = 8
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 1024)
			for i := 0; i < iters; i++ {
				switch c.Rank() {
				case 0:
					if err := c.Send(1, buf); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := c.Recv(0, buf); err != nil {
						t.Error(err)
					}
				}
			}
			c.Barrier()
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}

		// Rank 1's receives wait in the matching index for the wire frames:
		// op=recv, cpu source, 1024 bytes => size class "<2KiB".
		mw, ok := rep.Histograms["match_wait_ns/op=recv/src=cpu/size=<2KiB"]
		if !ok {
			t.Fatalf("match-wait histogram missing; have %v", histNames(rep))
		}
		if mw.Count == 0 {
			t.Fatal("match-wait histogram is empty")
		}
		p50, p99 := mw.Quantile(0.50), mw.Quantile(0.99)
		if p50 < 0 || p99 < p50 {
			t.Errorf("incoherent quantiles: p50=%d p99=%d", p50, p99)
		}
		if backend == transport.BackendSim && p50 == 0 {
			t.Error("sim match waits are deterministic and nonzero, p50 = 0")
		}

		if qd, ok := rep.Histograms["queue_depth/layer=intake"]; !ok || qd.Count == 0 {
			t.Errorf("intake queue-depth histogram missing or empty (ok=%v)", ok)
		}
		if cw, ok := rep.Histograms["coll_accum_wait_ns/op=barrier"]; !ok || cw.Count == 0 {
			t.Errorf("collective-accumulation histogram missing or empty (ok=%v)", ok)
		}
		if _, ok := rep.Gauges["peak_depth/layer=match"]; !ok {
			t.Error("matching-index peak gauge missing")
		}
	})
}

func histNames(rep Report) []string {
	names := make([]string, 0, len(rep.Histograms))
	for n := range rep.Histograms {
		names = append(names, n)
	}
	return names
}

// TestMetricsGPUPollEfficiency pins the registry's poll-efficiency
// counters against the report's flat aggregates: every monitor poll and
// every productive poll must be counted once.
func TestMetricsGPUPollEfficiency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs, cfg.SlotsPerGPU = 1, 1, 1, 1
	cfg.Metrics = true
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		if _, err := c.Recv(1, buf); err != nil {
			t.Error(err)
		}
	})
	job.SetGPUSetup(func(s *GPUSetup) {
		s.Args["buf"] = s.Dev.Mem().MustAlloc(256)
	})
	job.SetGPUKernel(1, 4, func(g *GPUCtx) {
		if g.Rank(0) == 1 {
			if err := g.Send(0, 0, g.Arg("buf").(device.Ptr), 256); err != nil {
				t.Error(err)
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polls == 0 {
		t.Fatal("workload produced no polls; test proves nothing")
	}
	if got := rep.Counters["gpu_polls"]; got != int64(rep.Polls) {
		t.Errorf("gpu_polls counter = %d, report says %d", got, rep.Polls)
	}
	if got := rep.Counters["gpu_poll_hits"]; got != int64(rep.PollHits) {
		t.Errorf("gpu_poll_hits counter = %d, report says %d", got, rep.PollHits)
	}
}

// TestMetricsRetransmitBackoff drives a lossy reliable wire and checks the
// backoff histogram observed one entry per retransmission.
func TestMetricsRetransmitBackoff(t *testing.T) {
	cfg := cpuOnlyConfig(2, 1)
	cfg.Metrics = true
	cfg.Faults = faults.Config{Seed: 3, Drop: 0.25}
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 128)
		for i := 0; i < 24; i++ {
			switch c.Rank() {
			case 0:
				if err := c.Send(1, buf); err != nil {
					t.Error(err)
				}
			case 1:
				if _, err := c.Recv(0, buf); err != nil {
					t.Error(err)
				}
			}
		}
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retransmits == 0 {
		t.Fatal("no retransmits under a 25% drop rate; test proves nothing")
	}
	bo := rep.Histograms["retransmit_backoff_ns"]
	if int64(bo.Count) != rep.Retransmits {
		t.Errorf("backoff histogram saw %d observations, report counted %d retransmits",
			bo.Count, rep.Retransmits)
	}
}

// TestDebugEndpointLive exercises Config.DebugAddr mid-run on the live
// backend: while the kernels are deliberately parked, the test polls the
// bound address, fetches /debug/dcgn, and decodes a registry snapshot
// whose counters reflect the traffic so far.
func TestDebugEndpointLive(t *testing.T) {
	cfg := backendConfig(transport.BackendLive, 2, 1)
	cfg.DebugAddr = "127.0.0.1:0"
	job := NewJob(cfg)
	if !job.Config().Metrics {
		t.Fatal("DebugAddr should imply Metrics")
	}

	release := make(chan struct{})
	// parked counts kernels whose message has matched — and so been
	// observed — before they park; probing earlier can race the match.
	var parked sync.WaitGroup
	parked.Add(2)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 512)
		switch c.Rank() {
		case 0:
			if err := c.Send(1, buf); err != nil {
				t.Error(err)
			}
		case 1:
			if _, err := c.Recv(0, buf); err != nil {
				t.Error(err)
			}
		}
		parked.Done()
		<-release // park the run so the endpoint can be probed mid-flight
	})

	done := make(chan error, 1)
	var rep Report
	go func() {
		var err error
		rep, err = job.Run()
		done <- err
	}()

	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		if time.Now().After(deadline) {
			t.Fatal("debug endpoint never came up")
		}
		addr = job.DebugAddr()
		if addr == "" {
			time.Sleep(time.Millisecond)
		}
	}
	parked.Wait()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/dcgn", addr))
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	var st obs.DebugState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		resp.Body.Close()
		close(release)
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if len(st.Histograms) == 0 {
		t.Error("mid-run snapshot has no histograms")
	}
	if len(rep.Histograms) == 0 {
		t.Error("final report has no histograms")
	}
	if job.DebugAddr() != "" {
		t.Error("endpoint still bound after Run returned")
	}
}
