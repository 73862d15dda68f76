package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo is recorded with every result so numbers from different
// machines or commits are never compared by accident.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The build stamps the commit when it runs inside a git checkout.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// cpuTicks returns the host's steal and total CPU ticks from /proc/stat,
// zero where it is not available. On a virtual machine, steal is time
// the hypervisor ran something else while this guest wanted the CPU; it
// explains wall-clock noise the process cannot see in its own CPU time.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealFrac is the share of host CPU ticks stolen since the given reading.
func stealFrac(steal0, total0 uint64) float64 {
	steal, total := cpuTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// cpuNs returns the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSnapshot reads the runtime/metrics the per-layer split uses.
type rtSnapshot struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
	schedLat                           *metrics.Float64Histogram
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() rtSnapshot {
	s := slices.Clone(rtSamples)
	metrics.Read(s)
	return rtSnapshot{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
		schedLat:     s[5].Value.Float64Histogram(),
	}
}

// histQuantile returns quantile q of the difference of two snapshots of
// one runtime histogram, taking each bucket's upper bound (its lower
// bound for the last, unbounded bucket).
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		counts[i] = c - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
