package main

// expectation is the committed virtual-time output of every simulated
// workload at one size: Report.Elapsed per operation, and for scale-1024
// the FNV-1a fold of the gathered per-rank digests. None depends on the
// seed. A mismatch is a failed operation.
type expectation struct {
	virtNs map[string]int64
	digest uint64
}

// expected is the expectation at size.
var expected = expectation{
	virtNs: map[string]int64{"pingpong": 286356000, "mandelbrot": 11726559, "nbody": 8411699, "cannon": 1799878, "scale": 735657},
	digest: 0x33a721fba5e4600d,
}
