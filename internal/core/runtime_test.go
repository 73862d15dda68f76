package core

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"testing"
	"time"

	"dcgn/internal/transport"
	"dcgn/internal/transport/faults"
)

// Multi-tenant Runtime: admission control, weighted fair sharing, and —
// the property everything else rests on — per-job isolation over the
// shared backend: co-resident tenants must not share buffer-pool
// counters, metrics registries, reliability sequence spaces, or traffic.

// runtimeConfig returns a Runtime substrate on the given backend.
func runtimeConfig(backend string, nodes int) RuntimeConfig {
	return RuntimeConfig{
		Nodes:          nodes,
		Transport:      transport.Config{Backend: backend},
		MaxVirtualTime: 30 * time.Second,
	}
}

// pingPongJob builds a 2-node, 1-kernel-per-node job bouncing a payload
// reps times.
func pingPongJob(backend string, reps int) *Job {
	job := NewJob(backendConfig(backend, 2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		for i := 0; i < reps; i++ {
			switch c.Rank() {
			case 0:
				c.Send(1, buf)
				c.Recv(1, buf)
			case 1:
				c.Recv(0, buf)
				c.Send(0, buf)
			}
		}
		c.Barrier()
	})
	return job
}

// checkTenantReportInvariant asserts the NodeStats-sum-to-Report
// invariant for one tenant's report in isolation: every aggregate equals
// the sum of that job's own per-node entries.
func checkTenantReportInvariant(t *testing.T, label string, rep Report, wantNodes int) {
	t.Helper()
	if len(rep.Nodes) != wantNodes {
		t.Fatalf("%s: %d node entries, want %d", label, len(rep.Nodes), wantNodes)
	}
	var req int
	var local, wire, retr, dup, acksS, acksR int64
	for _, st := range rep.Nodes {
		if st.RequestsHandled != int(st.LocalRequests+st.WireMessages) {
			t.Errorf("%s node %d: handled %d != local %d + wire %d",
				label, st.Node, st.RequestsHandled, st.LocalRequests, st.WireMessages)
		}
		req += st.RequestsHandled
		local += st.LocalRequests
		wire += st.WireMessages
		retr += st.Retransmits
		dup += st.DupWireFrames
		acksS += st.AcksSent
		acksR += st.AcksReceived
	}
	if req != rep.Requests {
		t.Errorf("%s: node sum %d != aggregate Requests %d", label, req, rep.Requests)
	}
	if retr != rep.Retransmits || dup != rep.DupWireFrames ||
		acksS != rep.AcksSent || acksR != rep.AcksReceived {
		t.Errorf("%s: reliability aggregates do not match node sums", label)
	}
	if rep.PoolAcquires != rep.PoolReleases {
		t.Errorf("%s: pool leak: %d acquires, %d releases",
			label, rep.PoolAcquires, rep.PoolReleases)
	}
}

// TestRuntimeSimBatchIsolation runs two identical jobs concurrently on a
// shared simulated runtime and pins their reports against a solo run of
// the same job: identical pool counters, request counts and wire totals
// mean neither tenant observed the other's existence. The two co-tenants
// must also agree with each other exactly — they are symmetric.
func TestRuntimeSimBatchIsolation(t *testing.T) {
	solo, err := pingPongJob(transport.BackendSim, 8).Run()
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Submit(pingPongJob(transport.BackendSim, 8), SubmitOpts{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Submit(pingPongJob(transport.BackendSim, 8), SubmitOpts{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	rep1, err1 := h1.Wait()
	rep2, err2 := h2.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("tenant errors: %v / %v", err1, err2)
	}
	defer r.Close()

	for label, rep := range map[string]Report{"tenant-a": rep1, "tenant-b": rep2} {
		checkTenantReportInvariant(t, label, rep, 2)
		if rep.Requests != solo.Requests {
			t.Errorf("%s: %d requests, solo run had %d (cross-tenant traffic?)",
				label, rep.Requests, solo.Requests)
		}
		if rep.NetPackets == 0 || rep.NetBytes == 0 {
			t.Errorf("%s: no wire traffic metered", label)
		}
		if rep.PoolAcquires != solo.PoolAcquires {
			t.Errorf("%s: %d pool acquires, solo %d (shared pool counters?)",
				label, rep.PoolAcquires, solo.PoolAcquires)
		}
	}
	// Symmetric co-tenants on disjoint equal node sets: bitwise-equal
	// virtual elapsed time and per-tenant wire metering, or determinism
	// broke. (Tenant NetPackets meter at the endpoint, so they are only
	// comparable to each other — the solo fabric-level count includes
	// MPI-internal control packets.)
	if rep1.Elapsed != rep2.Elapsed {
		t.Errorf("symmetric tenants differ: %v vs %v", rep1.Elapsed, rep2.Elapsed)
	}
	if rep1.NetPackets != rep2.NetPackets || rep1.NetBytes != rep2.NetBytes {
		t.Errorf("symmetric tenants metered different traffic: %d/%d vs %d/%d",
			rep1.NetPackets, rep1.NetBytes, rep2.NetPackets, rep2.NetBytes)
	}
}

// TestRuntimeSimReliabilityIsolation runs two reliable-wire tenants
// concurrently: sequence spaces must not collide, so neither job sees
// duplicate frames or stray acks — each matches a solo reliable run.
func TestRuntimeSimReliabilityIsolation(t *testing.T) {
	mk := func() *Job {
		cfg := backendConfig(transport.BackendSim, 2, 1)
		cfg.Reliability.Enabled = true
		job := NewJob(cfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 128)
			for i := 0; i < 6; i++ {
				switch c.Rank() {
				case 0:
					c.Send(1, buf)
				case 1:
					c.Recv(0, buf)
				}
			}
			c.Barrier()
		})
		return job
	}
	solo, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	if solo.AcksSent == 0 {
		t.Fatal("solo reliable run sent no acks; test is vacuous")
	}

	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := r.Submit(mk(), SubmitOpts{Tenant: "a"})
	hb, _ := r.Submit(mk(), SubmitOpts{Tenant: "b"})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for label, h := range map[string]*JobHandle{"a": ha, "b": hb} {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("tenant %s: %v", label, err)
		}
		if rep.AcksSent != solo.AcksSent || rep.AcksReceived != solo.AcksReceived {
			t.Errorf("tenant %s: acks %d/%d, solo %d/%d (shared seq space?)",
				label, rep.AcksSent, rep.AcksReceived, solo.AcksSent, solo.AcksReceived)
		}
		if rep.DupWireFrames != 0 || rep.Retransmits != 0 {
			t.Errorf("tenant %s: %d dups, %d retransmits on a clean shared wire",
				label, rep.DupWireFrames, rep.Retransmits)
		}
	}
}

// TestRuntimeSimMetricsIsolation gives both tenants a metrics registry
// and checks each report snapshots only its own partition.
func TestRuntimeSimMetricsIsolation(t *testing.T) {
	mk := func() *Job {
		cfg := backendConfig(transport.BackendSim, 2, 1)
		cfg.Metrics = true
		job := NewJob(cfg)
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 64)
			switch c.Rank() {
			case 0:
				c.Send(1, buf)
			case 1:
				c.Recv(0, buf)
			}
			c.Barrier()
		})
		return job
	}
	solo, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Counters) == 0 {
		t.Fatal("solo metrics run recorded no counters; test is vacuous")
	}

	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := r.Submit(mk(), SubmitOpts{Tenant: "a"})
	hb, _ := r.Submit(mk(), SubmitOpts{Tenant: "b"})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	repA, _ := ha.Wait()
	repB, _ := hb.Wait()
	for label, rep := range map[string]Report{"a": repA, "b": repB} {
		if len(rep.Counters) != len(solo.Counters) {
			t.Errorf("tenant %s: %d counters, solo had %d", label, len(rep.Counters), len(solo.Counters))
		}
		for name, want := range solo.Counters {
			if got := rep.Counters[name]; got != want {
				t.Errorf("tenant %s counter %s: got %d, solo %d (shared registry?)",
					label, name, got, want)
			}
		}
	}
}

// TestRuntimeSimSaturationQueues submits three cluster-sized jobs to a
// cluster that fits one: all three must be accepted (queued, never
// rejected) and run back-to-back in virtual time.
func TestRuntimeSimSaturationQueues(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	var handles []*JobHandle
	for i := 0; i < 3; i++ {
		h, err := r.Submit(pingPongJob(transport.BackendSim, 8), SubmitOpts{})
		if err != nil {
			t.Fatalf("submit %d past saturation rejected: %v", i, err)
		}
		handles = append(handles, h)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var starts []time.Duration
	for i, h := range handles {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkTenantReportInvariant(t, "saturated", rep, 2)
		starts = append(starts, h.Status().StartedAt)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	if !(starts[0] < starts[1] && starts[1] < starts[2]) {
		t.Errorf("expected strictly staggered starts on a saturated cluster, got %v", starts)
	}
}

// TestRuntimeQueueBound pins the other half of admission control: the
// queue is bounded, and only past MaxQueue pending jobs does Submit fail
// — with ErrQueueFull, not a silent drop.
func TestRuntimeQueueBound(t *testing.T) {
	cfg := runtimeConfig(transport.BackendSim, 2)
	cfg.MaxQueue = 2
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pingPongJob(transport.BackendSim, 1), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pingPongJob(transport.BackendSim, 1), SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(pingPongJob(transport.BackendSim, 1), SubmitOpts{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit past MaxQueue=2: err=%v, want ErrQueueFull", err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestRuntimeSimFairShare saturates a 4-node cluster with two tenants of
// weight 1 and 3 submitting identical 1-node jobs, and checks the
// admission split while both are contending tracks the configured
// weights within 15%.
func TestRuntimeSimFairShare(t *testing.T) {
	mk := func() *Job {
		job := NewJob(backendConfig(transport.BackendSim, 1, 2))
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 64)
			for i := 0; i < 4; i++ {
				switch c.Rank() {
				case 0:
					c.Send(1, buf)
					c.Recv(1, buf)
				case 1:
					c.Recv(0, buf)
					c.Send(0, buf)
				}
			}
		})
		return job
	}
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 4))
	if err != nil {
		t.Fatal(err)
	}
	type sub struct {
		h      *JobHandle
		tenant string
	}
	var subs []sub
	for i := 0; i < 10; i++ {
		h, err := r.Submit(mk(), SubmitOpts{Tenant: "light", Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{h, "light"})
	}
	for i := 0; i < 30; i++ {
		h, err := r.Submit(mk(), SubmitOpts{Tenant: "heavy", Weight: 3})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{h, "heavy"})
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	type adm struct {
		start  time.Duration
		tenant string
	}
	var adms []adm
	for _, s := range subs {
		if _, err := s.h.Wait(); err != nil {
			t.Fatalf("tenant %s job: %v", s.tenant, err)
		}
		adms = append(adms, adm{s.h.Status().StartedAt, s.tenant})
	}
	sort.SliceStable(adms, func(i, j int) bool { return adms[i].start < adms[j].start })
	// Both tenants are contending throughout the first 16 admissions
	// (light has 10 jobs, heavy 30). Weights 1:3 → expect a 4:12 split;
	// within 15% means light gets 3–5 of 16.
	light := 0
	for _, a := range adms[:16] {
		if a.tenant == "light" {
			light++
		}
	}
	if light < 3 || light > 5 {
		t.Errorf("weight-1 tenant won %d of the first 16 admissions, want 4±1 (weights 1:3)", light)
	}
}

// TestRuntimeSimPriority checks strict priority ordering: a late
// high-priority submission is admitted ahead of earlier normal ones.
func TestRuntimeSimPriority(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Three cluster-sized jobs: only one runs at a time, so admission
	// order is observable as start order.
	hLow1, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{Name: "low1"})
	hLow2, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{Name: "low2"})
	hHigh, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{Name: "high", Priority: 1})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, h := range []*JobHandle{hLow1, hLow2, hHigh} {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// low1 is admitted at t=0 (the high-priority job arrives while it
	// holds the cluster conceptually — in the batch everything is queued
	// at t=0, so priority decides the whole order: high first, then FIFO).
	if !(hHigh.Status().StartedAt < hLow1.Status().StartedAt &&
		hLow1.Status().StartedAt < hLow2.Status().StartedAt) {
		t.Errorf("admission order (starts): high=%v low1=%v low2=%v; want high < low1 < low2",
			hHigh.Status().StartedAt, hLow1.Status().StartedAt, hLow2.Status().StartedAt)
	}
}

// TestRuntimeCancelQueued cancels a queued submission before the batch
// runs; it must never execute, and its handle resolves with
// ErrJobCanceled.
func TestRuntimeCancelQueued(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{})
	h2, _ := r.Submit(pingPongJob(transport.BackendSim, 4), SubmitOpts{})
	if err := h2.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("canceled handle: err=%v, want ErrJobCanceled", err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := h2.Status().State; st != JobCanceled {
		t.Errorf("canceled job state %v", st)
	}
}

// TestRuntimeSubmitValidation pins the admission-time rejections: wrong
// backend, oversized jobs, and per-job knobs the runtime owns.
func TestRuntimeSubmitValidation(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendSim, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}()
	cases := []struct {
		name string
		job  *Job
	}{
		{"wrong backend", pingPongJob(transport.BackendLive, 1)},
		{"too many nodes", func() *Job {
			j := NewJob(backendConfig(transport.BackendSim, 3, 1))
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
		{"no kernels", NewJob(backendConfig(transport.BackendSim, 2, 1))},
		{"sharded", func() *Job {
			cfg := backendConfig(transport.BackendSim, 2, 1)
			cfg.Shards = 2
			j := NewJob(cfg)
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
		{"negative shards", func() *Job {
			cfg := backendConfig(transport.BackendSim, 2, 1)
			cfg.Shards = -1
			j := NewJob(cfg)
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
		{"debug addr", func() *Job {
			cfg := backendConfig(transport.BackendSim, 2, 1)
			cfg.DebugAddr = ":0"
			j := NewJob(cfg)
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
		{"faults", func() *Job {
			cfg := backendConfig(transport.BackendSim, 2, 1)
			cfg.Faults = faults.Config{Seed: 1, Drop: 0.1}
			j := NewJob(cfg)
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
		{"jitter", func() *Job {
			cfg := backendConfig(transport.BackendSim, 2, 1)
			cfg.JitterFrac = 0.1
			j := NewJob(cfg)
			j.SetCPUKernel(func(*CPUCtx) {})
			return j
		}()},
	}
	for _, tc := range cases {
		if _, err := r.Submit(tc.job, SubmitOpts{}); err == nil {
			t.Errorf("%s: submit unexpectedly accepted", tc.name)
		}
	}
}

// TestRuntimeLiveConcurrentJobs is the live-backend scale check: one
// Runtime sustains 8 concurrent jobs (admitted together, none queued) on
// real goroutines. Run under -race, this is also the isolation proof for
// the shared live cluster.
func TestRuntimeLiveConcurrentJobs(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 16))
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 8
	var handles []*JobHandle
	for i := 0; i < jobs; i++ {
		h, err := r.Submit(pingPongJob(transport.BackendLive, 50), SubmitOpts{Tenant: "t", Weight: 1})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// 16 nodes fit all 8 two-node jobs: every one must be admitted
	// immediately, i.e. running concurrently.
	for i, h := range handles {
		if st := h.Status().State; st == JobQueued {
			t.Errorf("job %d still queued on an unsaturated cluster", i)
		}
	}
	for i, h := range handles {
		rep, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		checkTenantReportInvariant(t, "live", rep, 2)
		if rep.NetPackets == 0 {
			t.Errorf("job %d reports no wire traffic", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeLiveQueueAndAdmit saturates a live cluster and checks the
// queued job is admitted when the first finishes — time-sharing, not
// rejection.
func TestRuntimeLiveQueueAndAdmit(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 2))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Submit(pingPongJob(transport.BackendLive, 200), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Submit(pingPongJob(transport.BackendLive, 1), SubmitOpts{})
	if err != nil {
		t.Fatalf("submit past saturation rejected: %v", err)
	}
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if rep, err := h2.Wait(); err != nil {
		t.Fatal(err)
	} else if rep.Requests == 0 {
		t.Error("queued job ran no requests")
	}
	if h2.Status().StartedAt < h1.Status().FinishedAt {
		t.Errorf("queued job started at %v, before the first finished at %v",
			h2.Status().StartedAt, h1.Status().FinishedAt)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeLiveCancelRunning cancels a deadlocked running job: the
// runtime closes its transport group, the engine unwinds, and the handle
// resolves with ErrJobCanceled — without waiting for the watchdog.
func TestRuntimeLiveCancelRunning(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 2))
	if err != nil {
		t.Fatal(err)
	}
	job := NewJob(backendConfig(transport.BackendLive, 2, 1))
	job.SetCPUKernel(func(c *CPUCtx) {
		// Both ranks receive from each other: a guaranteed deadlock.
		buf := make([]byte, 8)
		c.Recv(1-c.Rank(), buf)
	})
	h, err := r.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Cancel(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("canceled running job: err=%v, want ErrJobCanceled", err)
	}
	if st := h.Status().State; st != JobCanceled {
		t.Errorf("state %v, want canceled", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeControlAPI exercises the HTTP control plane end to end on a
// live runtime: submit a registered template, watch it through the job
// list, read the merged metrics snapshot, and drain.
func TestRuntimeControlAPI(t *testing.T) {
	cfg := runtimeConfig(transport.BackendLive, 2)
	cfg.DebugAddr = "127.0.0.1:0"
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.RegisterTemplate("pingpong", func() *Job {
		return pingPongJob(transport.BackendLive, 5)
	})
	addr := r.ControlAddr()
	if addr == "" {
		t.Fatal("control endpoint not bound")
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/runtime/submit?template=pingpong&tenant=web&weight=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st struct {
		ID     int    `json:"id"`
		Tenant string `json:"tenant"`
		Weight int    `json:"weight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == 0 || st.Tenant != "web" || st.Weight != 2 {
		t.Fatalf("submit echoed %+v", st)
	}

	if resp, err := http.Post(base+"/runtime/submit?template=nope", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown template: HTTP %d, want 404", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/runtime/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list []struct {
			ID    int    `json:"id"`
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list) >= 1 && list[0].State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached done: %+v", list)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, err := http.Get(base + "/debug/dcgn"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics snapshot: HTTP %d", resp.StatusCode)
	}
	if resp, err := http.Post(base+"/runtime/drain", "", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d", resp.StatusCode)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeDrainRejectsSubmits checks Drain flips the runtime into
// reject mode and settles every accepted job.
func TestRuntimeDrainRejectsSubmits(t *testing.T) {
	r, err := NewRuntime(runtimeConfig(transport.BackendLive, 2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Submit(pingPongJob(transport.BackendLive, 10), SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r.Drain()
	if _, err := r.Submit(pingPongJob(transport.BackendLive, 1), SubmitOpts{}); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("submit after drain: err=%v, want ErrRuntimeClosed", err)
	}
	if st := h.Status().State; st != JobDone {
		t.Errorf("drained runtime left job in state %v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
