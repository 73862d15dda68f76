package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"sort"
	"strings"
	"testing"

	"dcgn/internal/apps"
	"dcgn/internal/core"
)

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// tinySize keeps the benchmark's own tests fast; tinyExpected is the
// committed expectation at that size.
var (
	tinySize = sizing{pingIters: 50, mandelW: 64, mandelH: 32, nbodyBodies: 256, nbodySteps: 1, cannonN: 64,
		deviceMem: 1 << 20, scaleNodes: 64, serveNodes: 8}
	tinyExpected = expectation{
		virtNs: map[string]int64{"pingpong": 7158900, "mandelbrot": 4989104, "nbody": 4498395, "cannon": 1489332, "scale": 538510},
		digest: 0x999434d9b5348765,
	}
)

// atTiny switches the benchmark to tinySize and tinyExpected, and its
// artefacts to a temporary directory, for the rest of the test.
func atTiny(t *testing.T) {
	t.Helper()
	savedSize, savedExp, savedOut := size, expected, outDir
	t.Cleanup(func() { size, expected, outDir = savedSize, savedExp, savedOut })
	size, expected, outDir = tinySize, tinyExpected, t.TempDir()
}

// runTiny runs one workload at the tiny size and decodes its last line.
func runTiny(t *testing.T, workload string, trace string) (int, contractLine, string) {
	t.Helper()
	atTiny(t)
	return runArgs(t, workload, trace)
}

// runArgs runs one workload at the current size and decodes its last line.
func runArgs(t *testing.T, workload string, trace string) (int, contractLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace}, &stdout, &stderr)
	out := strings.TrimSpace(stdout.String())
	lines := strings.Split(out, "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out, stderr.String())
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%s: last line has keys %v", workload, got)
	}
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return code, line, out
}

func workloadNames() []string {
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	return names
}

func checkMetrics(t *testing.T, workload string, line contractLine, defs []metricDef) {
	t.Helper()
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.name, m.Unit, d.unit)
		}
	}
}

func TestEveryEndToEndMetricByNameWithUnit(t *testing.T) {
	for _, w := range workloadNames() {
		code, line, out := runTiny(t, w, "0")
		if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: exit %d, line %+v\n%s", w, code, line, out)
		}
		checkMetrics(t, w, line, endToEnd)
		for _, d := range summary {
			if !strings.Contains(out, "\n"+d.name+" ") && !strings.HasPrefix(out, d.name+" ") {
				t.Errorf("%s: summary metric %s is not printed", w, d.name)
			}
			for _, l := range strings.Split(out, "\n") {
				if f := strings.Fields(l); len(f) >= 3 && f[0] == d.name && f[2] != d.unit {
					t.Errorf("%s: summary metric %s printed with unit %q, want %q", w, d.name, f[2], d.unit)
				}
			}
		}
		for _, d := range endToEnd {
			if v := line.Metrics[d.name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
			}
		}
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	for _, w := range workloadNames() {
		code, line, out := runTiny(t, w, "1")
		if code != 0 || !line.Correct || line.Failed != 0 {
			t.Errorf("%s: exit %d, line %+v\n%s", w, code, line, out)
		}
		checkMetrics(t, w, line, perLayer)
	}
}

// TestWrongExpectationFails proves the gate can fail: a deliberately wrong
// expected value must be reported as failed operations, correct=false and
// a non-zero exit status.
func TestWrongExpectationFails(t *testing.T) {
	for _, tc := range []struct {
		workload, key string
		digest        uint64
	}{
		{"pingpong-cpu", "pingpong", 0},
		{"gpu-apps", "nbody", 0},
		{"scale-1024", "scale", 0},
		{"scale-1024", "", 1},
	} {
		t.Run(tc.workload+"/"+tc.key, func(t *testing.T) {
			atTiny(t)
			wrong := expectation{virtNs: maps.Clone(tinyExpected.virtNs), digest: tinyExpected.digest + tc.digest}
			if tc.key != "" {
				wrong.virtNs[tc.key]++
			}
			expected = wrong
			code, line, out := runArgs(t, tc.workload, "0")
			if code == 0 || line.Correct || line.Failed == 0 || !strings.Contains(out, "FAIL") {
				t.Errorf("wrong expected %q / digest %+d passed: exit %d, line %+v", tc.key, tc.digest, code, line)
			}
		})
	}

	// serve-live's expected values are the reply bytes.
	saveWant := serveWant
	defer func() { serveWant = saveWant }()
	serveWant = func(s *serveInstance, i, it, m, size int) []byte {
		b := append([]byte(nil), s.payloadAt(i, it, m, size)...)
		b[0]++
		return b
	}
	code, line, _ := runTiny(t, "serve-live", "0")
	if code == 0 || line.Correct || line.Failed < line.Attempted {
		t.Errorf("serve-live: wrong expected replies passed: exit %d, line %+v", code, line)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dcgn/internal/sim.(*Sim).Run":                  "sim",
		"dcgn/internal/transport/simmpi.(*T).Send":      "transport",
		"dcgn/internal/transport.(*WallProc).Now":       "transport",
		"dcgn/internal/obs/flow.CriticalPath":           "obs",
		"dcgn/internal/core.(*Job).Run.func1":           "core",
		"dcgn/internal/loadgen.GenArrivals":             "bench",
		"main.pingpongCPU.func2.1":                      "bench",
		"runtime.mallocgc":                              "",
		"dcgn/internal/newpkg.F":                        "newpkg",
		"dcgn/internal/device.(*Arena).Alloc":           "device",
		"dcgn/internal/apps.MandelbrotDCGN.func3":       "apps",
		"dcgn/internal/bufpool.(*Pool).Get":             "bufpool",
		"dcgn/internal/pcie.(*Bus).Transfer":            "pcie",
		"dcgn/internal/fabric.(*Network).Send":          "fabric",
		"dcgn/internal/mpi.(*Rank).Send":                "mpi",
		"dcgn/internal/metrics.WriteAligned":            "obs",
		"dcgn/internal/gas.(*Cluster).Run":              "apps",
		"dcgn/internal/chaos.Run":                       "transport",
		"sync.(*Mutex).Lock":                            "",
		"dcgn/internal/transport/live.(*Endpoint).Send": "transport",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfTimesTileTheJob(t *testing.T) {
	job := span{name: spJob, start: 0, end: 100}
	children := []span{
		{name: spApp, start: 10, end: 90},
		{name: spCoreSend, start: 20, end: 50},
		{name: spTrSend, start: 30, end: 40},
		{name: spTrSend, start: 35, end: 45},    // overlaps the first send
		{name: spTrRecvMsg, start: 0, end: 100}, // a wait: no level
	}
	got, err := selfTimes(job, children)
	if err != nil {
		t.Fatal(err)
	}
	want := [4]int64{20, 50, 15, 15}
	if got != want {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if _, err := selfTimes(job, []span{{name: spTrSend, start: 90, end: 110}}); err == nil {
		t.Error("a child span outside its job was accepted")
	}
}

// TestScaleFoldIsShards1 shows that the committed digest folds scale-1024
// checks against are those of a Shards=1 run, at both sizes.
func TestScaleFoldIsShards1(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		fold  uint64
	}{{tinySize.scaleNodes, tinyExpected.digest}, {size.scaleNodes, expected.digest}} {
		cfg := core.DefaultConfig()
		cfg.Nodes, cfg.Shards, cfg.MPI.TreeCollectives = tc.nodes, 1, true
		_, digests, err := apps.ScaleFanout(cfg, scaleRounds, scaleFanout)
		if err != nil {
			t.Fatal(err)
		}
		if got := foldDigests(digests); got != tc.fold {
			t.Errorf("%d nodes: Shards=1 digest fold %#x, committed %#x", tc.nodes, got, tc.fold)
		}
	}
}
