// Command perfbench is the repository's host-cost benchmark. It measures
// what it costs the host to produce DCGN's results: wall time, CPU time
// and memory per job on the simulated backend, and request latency on the
// live backend. Every job's outputs are checked against committed values
// in the same run.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, with program tracing
// off. With --trace 1 it measures untraced for half the time, then traced
// (spans around the benchmark's own calls into each layer, a CPU profile
// bucketed by package, the Report counters and runtime/metrics) for the
// other half, and prints the per-layer split. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics. The
// exit status is non-zero when any operation failed or a check did not
// hold.
//
// Spans and the CPU profile of a traced run are written under outDir.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"dcgn/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// summary are the end-to-end figures a user of the system sees, printed by
// name with their units for every workload with --trace 0. Timings are
// host time, not virtual time.
var summary = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_wall_ms.p50", "ms"},
	{"job_cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"fail_frac", "frac"},
	{"lat_ms.p50", "ms"},
	{"lat_ms.p95", "ms"},
}

// endToEnd are the summary figures the benchmark gates on: the ones that
// repeat on a shared virtual machine. Process CPU time excludes the time
// the hypervisor gives the CPU to other guests, wall-clock time does not:
// on a 2-vCPU guest whose steal time moved between 5% and 30% within an
// hour, the wall-clock figures of scale-1024 (two shards) and serve-live
// (latency tails) spread by a third or more between runs, which no bound
// the gate allows can absorb. They are printed, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics of the traced run, per job (per
// completed job on serve-live). A layer a workload does not use reads 0.
var perLayer = []metricDef{
	{"sim.self_ms", "ms"},
	{"sim.wall_ns_per_virt_us", "ns/us"},
	{"sim.virt_us", "us"},
	{"fabric.self_ms", "ms"},
	{"fabric.packets", "count"},
	{"fabric.bytes", "bytes"},
	{"mpi.self_ms", "ms"},
	{"pcie.self_ms", "ms"},
	{"pcie.transfers", "count"},
	{"pcie.ctl_ops", "count"},
	{"device.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.requests", "count"},
	{"core.peak_pending", "count"},
	{"core.wire_frac", "frac"},
	{"core.gpu_polls", "count"},
	{"core.gpu_poll_hit_ratio", "frac"},
	{"core.send_us.p50", "us"},
	{"core.recv_us.p50", "us"},
	{"core.admit_wait_ms.p50", "ms"},
	{"core.admit_wait_ms.p95", "ms"},
	{"core.run_ms.p50", "ms"},
	{"core.run_ms.p95", "ms"},
	{"core.submit_us.p50", "us"},
	{"transport.self_ms", "ms"},
	{"transport.send_calls", "count"},
	{"transport.send_us.p50", "us"},
	{"transport.recv_wait_ms", "ms"},
	{"transport.coll_calls", "count"},
	{"transport.coll_us.p50", "us"},
	{"bufpool.self_ms", "ms"},
	{"bufpool.acquires", "count"},
	{"bufpool.hit_ratio", "frac"},
	{"apps.self_ms", "ms"},
	{"obs.self_ms", "ms"},
	{"goruntime.self_ms", "ms"},
	{"goruntime.alloc_mb", "MB"},
	{"goruntime.allocs", "count"},
	{"goruntime.gc_cycles", "count"},
	{"goruntime.gc_cpu_frac", "frac"},
	{"goruntime.sched_lat_us.p99", "us"},
	{"proc.cpu_util", "cpu-s/s"},
	{"bench.self_ms", "ms"},
	{"bench.late_ms.p99", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// workloads maps each workload to its closed-loop constructor; serve-live,
// the open-loop workload, has its own loop (runServeWorkload).
var workloads = map[string]simWorkload{
	"pingpong-cpu": pingpongCPU,
	"gpu-apps":     gpuApps,
	"scale-1024":   scale1024,
	"serve-live":   nil,
}

// outDir is where a traced run writes its spans and CPU profile.
var outDir = filepath.Join(".bench_build", "perfbench-out")

const (
	setupReps = 11 // timed set-ups per run, at least
	setupTime = 2 * time.Second
	// windows is the number of consecutive slices a measured phase is cut
	// into; rates and tail latencies are the median over the slices, so a
	// burst of noise from other tenants of the host moves one slice only.
	windows = 5
	minJobs = windows // per measured phase, however short --seconds is
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	info              map[string]any // printed, not gated: sample counts, host, virtual outputs
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note(format, args...)
}

func (o *outcome) note(format string, args ...any) {
	if len(o.problems) < problemLimit {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: pingpong-cpu, gpu-apps, scale-1024 or serve-live")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", o.workload, trace, o.seconds)
		return 2
	}

	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.values["fail_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	defs, table := endToEnd, summary
	if o.trace {
		defs, table = perLayer, perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("metric %s was not measured", d.name)
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	res.info["host"] = readHost()
	res.info["seed"] = o.seed
	res.info["workload"] = o.workload
	res.info["trace"] = o.trace
	if !o.trace {
		all := map[string]float64{}
		for _, d := range summary {
			all[d.name] = res.values[d.name]
		}
		res.info["summary"] = all
	}
	printTable(stdout, table, res.values)
	info, err := json.Marshal(res.info)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: info: %v\n", err)
	}
	fmt.Fprintf(stdout, "info %s\n", info)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 {
		return 1
	}
	return 0
}

func printTable(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		gated := ""
		for _, e := range endToEnd {
			if e.name == d.name {
				gated = "gated"
			}
		}
		fmt.Fprintf(w, "%-28s %14.6g %-7s %s\n", d.name, values[d.name], d.unit, gated)
	}
}

func runWorkload(o options) (*outcome, error) {
	res := &outcome{values: map[string]float64{}, info: map[string]any{}}
	steal0, total0 := cpuTicks()
	var err error
	if o.workload == "serve-live" {
		err = runServeWorkload(o, res)
	} else {
		err = runClosedWorkload(o, res)
	}
	res.info["steal_frac"] = stealFrac(steal0, total0)
	return res, err
}

// setupSeconds repeats the program's set-up after the measured phase, so
// its garbage cannot raise the phase's peak RSS, at least setupReps times
// and for at least setupTime, releasing each instance with drop. Each
// set-up is timed on its own and the mean of the middle half returned:
// it stays put when the host briefly deschedules the process, and unlike
// a median of whole nanoseconds it does not repeat digit for digit.
func setupSeconds[T any](setup func() (T, error), drop func(T)) (float64, error) {
	var secs []float64
	debug.FreeOSMemory() // start from the same heap, with no scavenging left to do
	start := time.Now()
	for len(secs) < setupReps || time.Since(start) < setupTime {
		t0 := time.Now()
		inst, err := setup()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		drop(inst)
	}
	sort.Float64s(secs)
	return sum(secs[len(secs)/4:len(secs)-len(secs)/4]) / float64(len(secs)-2*(len(secs)/4)), nil
}

// closedPhase aggregates the jobs of one measured phase.
type closedPhase struct {
	wallMs  []float64 // per job
	cpuMs   []float64 // per job, process user+system
	cpuNs   int64
	wallNs  int64
	jobs    int
	ops     int
	failed  int
	reports []core.Report
	virt    map[string]int // virtual outputs -> jobs producing them
}

// cut cuts xs into windows consecutive, nearly equal parts.
func cut(xs []float64) [][]float64 {
	var out [][]float64
	for w := 0; w < windows; w++ {
		lo, hi := w*len(xs)/windows, (w+1)*len(xs)/windows
		if hi > lo {
			out = append(out, xs[lo:hi])
		}
	}
	return out
}

// windowMedian is the median over the phase's slices of f(slice).
func windowMedian(xs []float64, f func([]float64) float64) float64 {
	var per []float64
	for _, s := range cut(xs) {
		per = append(per, f(s))
	}
	return quantile(per, 0.5)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// labelled runs fn under a pprof phase label when profiling is on.
func labelled(on bool, phase string, fn func()) {
	if !on {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
}

// runClosedPhase runs jobs back to back for dur (at least minN jobs),
// checking each outside its timed region.
func runClosedPhase(inst *simInstance, dur time.Duration, minN int, rec *recorder, res *outcome) closedPhase {
	ph := closedPhase{virt: map[string]int{}}
	deadline := time.Now().Add(dur)
	for ph.jobs < minN || time.Now().Before(deadline) {
		var parts []part
		var run func() []part
		labelled(rec != nil, "setup", func() { run = inst.newJob(rec) })
		c0 := cpuNs()
		t0 := time.Now()
		labelled(rec != nil, "job", func() {
			if rec == nil {
				parts = run()
				return
			}
			id := rec.beginJob(int32(ph.jobs))
			parts = run()
			rec.end(id)
			rec.cur.Store(-1)
		})
		wall := time.Since(t0)
		cpu := cpuNs() - c0
		labelled(rec != nil, "check", func() { inst.check(parts) })
		ph.jobs++
		ph.wallMs = append(ph.wallMs, ms(wall))
		ph.cpuMs = append(ph.cpuMs, float64(cpu)/1e6)
		ph.wallNs += wall.Nanoseconds()
		ph.cpuNs += cpu
		ph.virt[virtualOutputs(parts)]++
		for _, p := range parts {
			ph.ops++
			if p.err != nil {
				p.problems = append([]string{fmt.Sprintf("%s: %v", p.name, p.err)}, p.problems...)
			}
			if len(p.problems) > 0 {
				ph.failed++
				res.note("%s", strings.Join(p.problems, "; "))
			}
			ph.reports = append(ph.reports, p.report)
		}
	}
	return ph
}

func runClosedWorkload(o options, res *outcome) error {
	inst := workloads[o.workload](o.seed)
	// A warm-up job fills caches and pools before anything is timed; it is
	// checked like the others.
	addClosed(res, runClosedPhase(inst, 0, 1, nil, res))

	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		ph := runClosedPhase(inst, total, minJobs, nil, res)
		rss := peakRSSMB()
		addClosed(res, ph)
		setupS, err := setupSeconds(func() (func() []part, error) { return inst.newJob(nil), nil }, func(func() []part) {})
		if err != nil {
			return err
		}
		res.values["setup_s"] = setupS
		res.values["jobs_per_s"] = windowMedian(ph.wallMs, func(w []float64) float64 { return float64(len(w)) * 1e3 / sum(w) })
		res.values["job_wall_ms.p50"] = quantile(ph.wallMs, 0.5)
		res.values["job_cpu_ms"] = quantile(ph.cpuMs, 0.5)
		res.values["peak_rss_mb"] = rss
		// One closed-loop client: a request's latency is its job's wall time.
		res.values["lat_ms.p50"] = quantile(ph.wallMs, 0.5)
		res.values["lat_ms.p95"] = windowMedian(ph.wallMs, func(w []float64) float64 { return quantile(w, 0.95) })
		res.info["samples"] = map[string]int{"jobs": len(ph.wallMs), "windows": len(cut(ph.wallMs))}
		res.info["virtual"] = ph.virt
		return nil
	}

	untraced := runClosedPhase(inst, total/2, minJobs, nil, res)
	addClosed(res, untraced)
	tr, err := traceClosed(o, inst, total/2, res)
	if err != nil {
		return err
	}
	for v := range tr.virt {
		if _, ok := untraced.virt[v]; !ok || len(tr.virt) != 1 || len(untraced.virt) != 1 {
			res.fail("traced run's virtual outputs %v differ from the untraced run's %v", tr.virt, untraced.virt)
			break
		}
	}
	untracedP50 := quantile(untraced.wallMs, 0.5)
	tracedP50 := quantile(tr.wallMs, 0.5)
	res.values["bench.trace_overhead_frac"] = tracedP50/untracedP50 - 1
	if e := meanElapsed(untraced.reports, untraced.jobs); e > 0 {
		res.values["sim.virt_us"] = e / 1e3
		res.values["sim.wall_ns_per_virt_us"] = untracedP50 * 1e6 / (e / 1e3)
	}
	res.info["jobs"] = map[string]int{"untraced": untraced.jobs, "traced": tr.jobs}
	return nil
}

func meanElapsed(reps []core.Report, jobs int) float64 {
	var total int64
	for _, r := range reps {
		total += r.Elapsed.Nanoseconds()
	}
	return float64(total) / float64(jobs)
}

func addClosed(res *outcome, ph closedPhase) {
	res.attempted += ph.ops
	res.failed += ph.failed
}

// traceClosed is the traced phase of a closed-loop workload.
func traceClosed(o options, inst *simInstance, dur time.Duration, res *outcome) (closedPhase, error) {
	rec := newRecorder()
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return closedPhase{}, err
	}
	ph := runClosedPhase(inst, dur, minJobs, rec, res)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	addClosed(res, ph)
	jobs := float64(ph.jobs)

	spans := rec.snapshot()
	if err := splitInto(res, prof.Bytes(), jobs); err != nil {
		return ph, err
	}
	runtimeInto(res, rt0, rt1, jobs)
	res.values["proc.cpu_util"] = float64(ph.cpuNs) / float64(ph.wallNs)
	res.values["bench.late_ms.p99"] = 0
	for _, k := range []string{"core.admit_wait_ms.p50", "core.admit_wait_ms.p95", "core.run_ms.p50", "core.run_ms.p95", "core.submit_us.p50"} {
		res.values[k] = 0
	}
	reportsInto(res, ph.reports, jobs)

	// Spans: kernel calls, transport calls and, on single-threaded
	// workloads, the job's wall split between them.
	var coreSend, coreRecv, trSend, trColl []float64
	var recvWait int64
	var sendCalls, collCalls int
	jobsByID := map[int32]span{}
	children := map[int32][]span{}
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e3
		switch {
		case s.name == spJob:
			jobsByID[s.job] = s
			continue
		case s.name == spCoreSend:
			coreSend = append(coreSend, d)
		case s.name == spCoreRecv:
			coreRecv = append(coreRecv, d)
		case s.name == spTrSend:
			trSend = append(trSend, d)
			sendCalls++
		case s.name == spTrRecvMsg:
			recvWait += s.end - s.start
		case s.name.isColl():
			trColl = append(trColl, d)
			collCalls++
		}
		children[s.job] = append(children[s.job], s)
	}
	res.values["core.send_us.p50"] = quantile(coreSend, 0.5)
	res.values["core.recv_us.p50"] = quantile(coreRecv, 0.5)
	res.values["transport.send_calls"] = float64(sendCalls) / jobs
	res.values["transport.send_us.p50"] = quantile(trSend, 0.5)
	res.values["transport.recv_wait_ms"] = float64(recvWait) / 1e6 / jobs
	res.values["transport.coll_calls"] = float64(collCalls) / jobs
	res.values["transport.coll_us.p50"] = quantile(trColl, 0.5)
	res.info["samples"] = map[string]int{"core.send_us": len(coreSend), "core.recv_us": len(coreRecv),
		"transport.send_us": len(trSend), "transport.coll_us": len(trColl)}

	if o.workload != "scale-1024" { // two shards overlap in wall time there
		var split [4]int64
		for id, j := range jobsByID {
			parts, err := selfTimes(j, children[id])
			if err != nil {
				res.fail("span accounting: job %d: %v", id, err)
				continue
			}
			for lv, v := range parts {
				split[lv] += v
			}
		}
		res.info["span_self_ms_per_job"] = map[string]float64{
			"unattributed": float64(split[0]) / 1e6 / jobs,
			"apps":         float64(split[1]) / 1e6 / jobs,
			"core":         float64(split[2]) / 1e6 / jobs,
			"transport":    float64(split[3]) / 1e6 / jobs,
		}
	}
	return ph, writeArtifacts(o, spans, prof.Bytes())
}

// splitInto charges the job-phase CPU samples to layers, per job, and
// checks that the buckets account for every sample exactly once.
func splitInto(res *outcome, prof []byte, jobs float64) error {
	split, err := splitProfile(prof)
	if err != nil {
		return err
	}
	// Unlabelled samples are GC workers and goroutines created before the
	// profile started; during the traced phase they serve the jobs.
	byLayer := map[string]int64{}
	var total int64
	for _, ph := range []string{"job", ""} {
		for l, v := range split.byPhase[ph] {
			byLayer[l] += v
		}
		total += split.total[ph]
	}
	var held int64
	for _, l := range layers {
		held += byLayer[l]
		res.values[l+".self_ms"] = float64(byLayer[l]) / 1e6 / jobs
	}
	if held != total {
		var extra []string
		for l := range byLayer {
			if !slices.Contains(layers, l) {
				extra = append(extra, l)
			}
		}
		sort.Strings(extra)
		res.fail("sample accounting: layers hold %d ns of %d ns job-phase CPU samples (unmapped buckets %v)", held, total, extra)
	}
	shares := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		}
	}
	res.info["cpu_share"] = shares
	res.info["cpu_samples_ms"] = float64(total) / 1e6
	res.info["check_samples_ms"] = float64(split.total["check"]) / 1e6
	return nil
}

func runtimeInto(res *outcome, a, b rtSnapshot, jobs float64) {
	res.values["goruntime.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / 1e6 / jobs
	res.values["goruntime.allocs"] = float64(b.allocObjects-a.allocObjects) / jobs
	res.values["goruntime.gc_cycles"] = float64(b.gcCycles-a.gcCycles) / jobs
	res.values["goruntime.gc_cpu_frac"] = 0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		res.values["goruntime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
	res.values["goruntime.sched_lat_us.p99"] = histQuantile(a.schedLat, b.schedLat, 0.99) * 1e6
}

// reportsInto turns the summed Report counters into per-job values.
func reportsInto(res *outcome, reps []core.Report, jobs float64) {
	var t core.Report
	var local, wire int64
	for _, r := range reps {
		t.Requests += r.Requests
		t.NetPackets += r.NetPackets
		t.NetBytes += r.NetBytes
		t.PeakPending += r.PeakPending
		t.BusTransfers += r.BusTransfers
		t.BusCtlOps += r.BusCtlOps
		t.Polls += r.Polls
		t.PollHits += r.PollHits
		t.PoolAcquires += r.PoolAcquires
		t.PoolHits += r.PoolHits
		for _, n := range r.Nodes {
			local += n.LocalRequests
			wire += n.WireMessages
		}
	}
	res.values["core.requests"] = float64(t.Requests) / jobs
	res.values["core.peak_pending"] = float64(t.PeakPending) / jobs
	res.values["core.wire_frac"] = ratio(float64(wire), float64(local+wire))
	res.values["core.gpu_polls"] = float64(t.Polls) / jobs
	res.values["core.gpu_poll_hit_ratio"] = ratio(float64(t.PollHits), float64(t.Polls))
	res.values["fabric.packets"] = float64(t.NetPackets) / jobs
	res.values["fabric.bytes"] = float64(t.NetBytes) / jobs
	res.values["pcie.transfers"] = float64(t.BusTransfers) / jobs
	res.values["pcie.ctl_ops"] = float64(t.BusCtlOps) / jobs
	res.values["bufpool.acquires"] = float64(t.PoolAcquires) / jobs
	res.values["bufpool.hit_ratio"] = ratio(float64(t.PoolHits), float64(t.PoolAcquires))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeArtifacts writes a traced run's spans and CPU profile under outDir.
func writeArtifacts(o options, spans []span, prof []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := os.WriteFile(base+".cpu.pb.gz", prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.csv.gz")
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runServeWorkload drives serve-live: seeded open-loop Poisson arrivals
// at serveRate on a live Runtime.
func runServeWorkload(o options, res *outcome) error {
	total := time.Duration(o.seconds * float64(time.Second))
	window := total
	if o.trace {
		window = total / 2
	}
	inst, err := newServe(o.seed, window)
	if err != nil {
		return err
	}
	if err := inst.start(); err != nil {
		return err
	}
	defer inst.stop()
	addServe := func(ph servePhase) {
		res.attempted += ph.attempted
		res.failed += ph.failed
		for _, p := range ph.problems {
			res.note("%s", p)
		}
	}

	if !o.trace {
		ph := inst.runServe(nil)
		rss := peakRSSMB()
		addServe(ph)
		// The Runtime keeps every finished job; release them so set-up is
		// timed on a heap like the one at start.
		inst.stop()
		setupS, err := setupSeconds(newRuntime, func(rt *core.Runtime) { rt.Close() })
		if err != nil {
			return err
		}
		res.values["setup_s"] = setupS
		res.values["peak_rss_mb"] = rss
		done := float64(len(ph.latMs))
		if done == 0 {
			return nil // every arrival failed; the figures per job are missing
		}
		res.values["jobs_per_s"] = done / ph.wall.Seconds()
		res.values["job_wall_ms.p50"] = quantile(ph.runMs, 0.5)
		res.values["job_cpu_ms"] = float64(ph.cpuNs) / 1e6 / done
		res.values["peak_rss_mb"] = rss
		res.values["lat_ms.p50"] = quantile(ph.latMs, 0.5)
		res.values["lat_ms.p95"] = windowMedian(ph.latMs, func(w []float64) float64 { return quantile(w, 0.95) })
		res.info["samples"] = map[string]int{"lat_ms": len(ph.latMs), "job_wall_ms": len(ph.runMs), "windows": len(cut(ph.latMs))}
		res.info["late_ms.p99"] = quantile(ph.lateMs, 0.99)
		ladder := map[string]float64{}
		for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
			ladder[fmt.Sprintf("p%g", q*100)] = quantile(ph.latMs, q)
		}
		res.info["lat_ms"] = ladder
		return nil
	}

	untraced := inst.runServe(nil)
	addServe(untraced)
	rec := newRecorder()
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var ph servePhase
	labelled(true, "job", func() { ph = inst.runServe(rec) })
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	addServe(ph)
	done := float64(len(ph.latMs))
	if done == 0 {
		return nil // every arrival failed; the figures per job are missing
	}
	if err := splitInto(res, prof.Bytes(), done); err != nil {
		return err
	}
	runtimeInto(res, rt0, rt1, done)
	reportsInto(res, ph.reports, done)
	res.values["proc.cpu_util"] = float64(ph.cpuNs) / float64(ph.wall.Nanoseconds())
	res.values["core.admit_wait_ms.p50"] = quantile(ph.admitMs, 0.5)
	res.values["core.admit_wait_ms.p95"] = quantile(ph.admitMs, 0.95)
	res.values["core.run_ms.p50"] = quantile(ph.runMs, 0.5)
	res.values["core.run_ms.p95"] = quantile(ph.runMs, 0.95)
	res.values["core.submit_us.p50"] = quantile(ph.submitUs, 0.5)
	res.values["bench.late_ms.p99"] = quantile(ph.lateMs, 0.99)
	res.values["bench.trace_overhead_frac"] = quantile(ph.runMs, 0.5)/quantile(untraced.runMs, 0.5) - 1
	for _, k := range []string{"sim.virt_us", "sim.wall_ns_per_virt_us", "core.send_us.p50", "core.recv_us.p50",
		"transport.send_calls", "transport.send_us.p50", "transport.recv_wait_ms", "transport.coll_calls", "transport.coll_us.p50"} {
		res.values[k] = 0
	}
	res.info["samples"] = map[string]int{"core.admit_wait_ms": len(ph.admitMs), "core.run_ms": len(ph.runMs),
		"core.submit_us": len(ph.submitUs), "bench.late_ms": len(ph.lateMs), "untraced.run_ms": len(untraced.runMs)}
	return writeArtifacts(o, rec.snapshot(), prof.Bytes())
}
