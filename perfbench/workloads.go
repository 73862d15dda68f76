package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"dcgn/internal/apps"
	"dcgn/internal/core"
	"dcgn/internal/transport"
)

// sizing is the input size of every workload.
type sizing struct {
	pingIters        int // 1 KiB round trips per pingpong-cpu job
	mandelW, mandelH int
	nbodyBodies      int
	nbodySteps       int
	cannonN          int
	deviceMem        int // per-GPU memory; 0 keeps the default
	scaleNodes       int
	serveNodes       int
}

// size is what the benchmark measures. The benchmark's own tests replace
// it, and expected with it, by a tiny sizing.
var size = sizing{pingIters: 2000, mandelW: 256, mandelH: 128, nbodyBodies: 1024, nbodySteps: 2, cannonN: 256, scaleNodes: 1024, serveNodes: 16}

const (
	pingPayload  = 1024
	scaleRounds  = 2
	scaleFanout  = 3
	scaleShards  = 2
	fnvOffset64  = 14695981039346656037
	fnvPrime64   = 1099511628211
	problemLimit = 8 // failure messages kept per run; the count is exact
)

// part is one operation of a job: the whole job, or one apps.* call of a
// gpu-apps round. An operation fails if it returns an error or any check
// on it fails.
type part struct {
	name     string
	report   core.Report
	err      error
	problems []string
}

func (p *part) failf(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// simInstance is a closed-loop workload with its inputs generated and
// the references its checks need computed, outside every timed region.
type simInstance struct {
	// newJob is the program's set-up for one job: core.NewJob on the
	// job's configs and kernel registration. setup_s times it. It returns
	// the job, which runs when called. rec is nil in the untraced run.
	newJob func(rec *recorder) func() []part
	// check validates a job's outputs against the committed expectations,
	// outside the timed region.
	check func(parts []part)
}

// simWorkload builds an instance from the seed, at the current size.
type simWorkload func(seed int64) *simInstance

// checkSimReport applies the checks every simulated job must pass: the
// committed virtual elapsed time, staging-pool conservation, and per-node
// request counts summing to the report.
func checkSimReport(p *part, wantNs int64) {
	rep := p.report
	if got := rep.Elapsed.Nanoseconds(); got != wantNs {
		p.failf("%s: virtual elapsed %d ns, expected %d ns", p.name, got, wantNs)
	}
	checkConservation(p)
}

func checkConservation(p *part) {
	rep := p.report
	if rep.PoolAcquires != rep.PoolReleases {
		p.failf("%s: pool acquires %d != releases %d", p.name, rep.PoolAcquires, rep.PoolReleases)
	}
	sum := 0
	for _, n := range rep.Nodes {
		sum += n.RequestsHandled
	}
	if sum != rep.Requests {
		p.failf("%s: per-node requests sum to %d, report says %d", p.name, sum, rep.Requests)
	}
}

// wrapFor installs the transport span recorder in the traced run.
func wrapFor(cfg *core.Config, rec *recorder) {
	if rec == nil {
		return
	}
	cfg.WrapTransport = func(tr transport.Transport) transport.Transport {
		return &tracedTransport{inner: tr, rec: rec}
	}
}

// pingpongCPU: 2 nodes x 1 CPU rank, rank 0 sends each seeded 1 KiB
// payload and rank 1 echoes it back.
func pingpongCPU(seed int64) *simInstance {
	cfg := core.DefaultConfig()
	cfg.Nodes, cfg.CPUKernels, cfg.GPUs = 2, 1, 0
	iters := size.pingIters
	payload := make([]byte, iters*pingPayload)
	rand.New(rand.NewSource(seed)).Read(payload)
	echo := make([]byte, len(payload))

	inst := &simInstance{}
	inst.newJob = func(rec *recorder) func() []part {
		c := cfg
		wrapFor(&c, rec)
		job := core.NewJob(c)
		var errs [2]error
		job.SetCPUKernel(func(ctx *core.CPUCtx) {
			me := ctx.Rank()
			send := func(dst int, b []byte) error {
				if rec == nil {
					return ctx.Send(dst, b)
				}
				s := rec.now()
				err := ctx.Send(dst, b)
				rec.leaf(spCoreSend, s)
				return err
			}
			recv := func(src int, b []byte) error {
				if rec == nil {
					_, err := ctx.Recv(src, b)
					return err
				}
				s := rec.now()
				_, err := ctx.Recv(src, b)
				rec.leaf(spCoreRecv, s)
				return err
			}
			buf := make([]byte, pingPayload)
			for i := 0; i < iters && errs[me] == nil; i++ {
				msg := payload[i*pingPayload : (i+1)*pingPayload]
				if me == 0 {
					if errs[0] = send(1, msg); errs[0] == nil {
						errs[0] = recv(1, echo[i*pingPayload:(i+1)*pingPayload])
					}
				} else if errs[1] = recv(0, buf); errs[1] == nil {
					errs[1] = send(0, buf)
				}
			}
		})
		return func() []part {
			rep, err := job.Run()
			for _, e := range errs {
				if err == nil {
					err = e
				}
			}
			return []part{{name: "pingpong", report: rep, err: err}}
		}
	}
	inst.check = func(parts []part) {
		p := &parts[0]
		checkSimReport(p, expected.virtNs["pingpong"])
		if !bytes.Equal(echo, payload) {
			for i := 0; i < iters; i++ {
				if !bytes.Equal(echo[i*pingPayload:(i+1)*pingPayload], payload[i*pingPayload:(i+1)*pingPayload]) {
					p.failf("pingpong: echoed payload %d differs from the one sent", i)
					break
				}
			}
		}
		clear(echo) // a stale echo must not pass the next job's check
	}
	return inst
}

// gpuApps: one round is the three §5.1 applications in turn, each checked
// against its reference. Their inputs are defined by the applications and
// do not depend on the seed. Each application builds and runs its own
// job inside the call, so newJob's set-up is the same core.NewJob the
// three calls begin with, on their configs.
func gpuApps(int64) *simInstance {
	mc := apps.DefaultMandelConfig()
	mc.Width, mc.Height = size.mandelW, size.mandelH
	nc := apps.DefaultNBodyConfig()
	nc.Bodies, nc.Steps, nc.RealMath = size.nbodyBodies, size.nbodySteps, true
	cc := apps.DefaultCannonConfig()
	cc.N, cc.RealMath = size.cannonN, true
	shape := func(nodes, cpus, gpus int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Nodes, cfg.CPUKernels, cfg.GPUs = nodes, cpus, gpus
		if size.deviceMem > 0 {
			cfg.Device.MemBytes = size.deviceMem
		}
		return cfg
	}
	mandelCfg, nbodyCfg, cannonCfg := shape(4, 1, 2), shape(4, 0, 2), shape(2, 0, 2)

	ref := apps.MandelReference(mc)
	var lastImage []uint16
	var nbodyOK, cannonOK bool
	inst := &simInstance{}
	inst.newJob = func(rec *recorder) func() []part {
		cfgs := [3]core.Config{mandelCfg, nbodyCfg, cannonCfg}
		for i := range cfgs {
			wrapFor(&cfgs[i], rec)
			core.NewJob(cfgs[i])
		}
		return func() []part {
			parts := make([]part, 0, 3)
			call := func(fn func()) {
				if rec == nil {
					fn()
					return
				}
				rec.within(spApp, fn)
			}
			call(func() {
				r, err := apps.MandelbrotDCGN(cfgs[0], mc)
				lastImage = r.Image
				parts = append(parts, part{name: "mandelbrot", report: r.Report, err: err})
			})
			call(func() {
				r, err := apps.NBodyDCGN(cfgs[1], nc)
				nbodyOK = r.Verified
				parts = append(parts, part{name: "nbody", report: r.Report, err: err})
			})
			call(func() {
				r, err := apps.CannonDCGN(cfgs[2], cc)
				cannonOK = r.Verified
				parts = append(parts, part{name: "cannon", report: r.Report, err: err})
			})
			return parts
		}
	}
	inst.check = func(parts []part) {
		for i := range parts {
			p := &parts[i]
			checkSimReport(p, expected.virtNs[p.name])
		}
		if !slices.Equal(lastImage, ref) {
			parts[0].failf("mandelbrot: image differs from MandelReference")
		}
		if !nbodyOK {
			parts[1].failf("nbody: NBodyResult.Verified is false")
		}
		if !cannonOK {
			parts[2].failf("cannon: CannonResult.Verified is false")
		}
		lastImage, nbodyOK, cannonOK = nil, false, false
	}
	return inst
}

// scale1024: ScaleFanout on the sharded engine. Its inputs are defined by
// the application and do not depend on the seed. The FNV fold of the
// gathered per-rank digests must equal the committed one, which was taken
// from a Shards=1 run (TestScaleFoldIsShards1). ScaleFanout builds its
// job inside the call, so newJob's set-up is the same core.NewJob on its
// config.
func scale1024(int64) *simInstance {
	cfg := core.DefaultConfig()
	cfg.Nodes = size.scaleNodes
	cfg.Shards = scaleShards
	cfg.MPI.TreeCollectives = true

	var last []uint64
	inst := &simInstance{}
	inst.newJob = func(rec *recorder) func() []part {
		c := cfg
		wrapFor(&c, rec)
		jc := c
		jc.CPUKernels, jc.GPUs, jc.SlotsPerGPU = 1, 0, 0 // as ScaleFanout sets them
		core.NewJob(jc)
		return func() []part {
			rep, digests, err := apps.ScaleFanout(c, scaleRounds, scaleFanout)
			last = digests
			return []part{{name: "scale", report: rep, err: err}}
		}
	}
	inst.check = func(parts []part) {
		p := &parts[0]
		checkSimReport(p, expected.virtNs["scale"])
		if len(last) != cfg.Nodes {
			p.failf("scale: %d digests gathered, expected %d", len(last), cfg.Nodes)
		}
		if got := foldDigests(last); got != expected.digest {
			p.failf("scale: digest fold %#x, expected %#x", got, expected.digest)
		}
		last = nil
	}
	return inst
}

func foldDigests(ds []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, d := range ds {
		h = (h ^ d) * fnvPrime64
	}
	return h
}

// virtualOutputs renders a job's virtual outputs in a comparable form.
func virtualOutputs(parts []part) string {
	var b bytes.Buffer
	for _, p := range parts {
		fmt.Fprintf(&b, "%s=%d ", p.name, p.report.Elapsed.Nanoseconds())
	}
	return b.String()
}
