package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets CPU samples are charged to: the repository's
// modules, then goruntime (no dcgn frame on the stack) and bench (this
// benchmark's own code). obs collects the metrics/tracing packages the Runtime uses for
// its scheduling histograms even with tracing off.
var layers = []string{
	"sim", "fabric", "mpi", "pcie", "device", "core", "transport",
	"bufpool", "apps", "obs", "goruntime", "bench",
}

// layerOf maps a fully qualified function name from a profile to its
// layer, or "" when the frame belongs to no layer (the Go runtime and
// standard library), so the caller keeps walking towards the root.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "dcgn/internal/")
	if !ok {
		if strings.HasPrefix(fn, "dcgn.") {
			return "core" // the public package is a veneer over internal/core
		}
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "sim", "fabric", "mpi", "pcie", "device", "core", "transport", "bufpool", "apps":
		return pkg
	case "obs", "metrics":
		return "obs"
	case "gas":
		return "apps" // the GAS baseline is application-side code
	case "chaos":
		return "transport"
	case "loadgen":
		return "bench" // arrival generation makes the benchmark's inputs
	}
	// An unmapped package gets its own bucket, which the accounting check
	// reports because it is not one of the listed layers.
	return pkg
}

// sampleSplit is a CPU profile reduced to what the benchmark reports:
// CPU nanoseconds per (phase label, layer).
type sampleSplit struct {
	// byPhase[phase][layer] sums the sampled CPU time; samples without a
	// phase label (GC workers, goroutines started before labelling) are
	// under "".
	byPhase map[string]map[string]int64
	// total[phase] is the phase's whole sampled CPU time, summed
	// independently of the layer walk so the accounting check can compare.
	total map[string]int64
}

// splitProfile decodes a gzipped pprof CPU profile and charges every
// sample to the innermost frame of a layer on its stack; a stack with no
// such frame is charged to goruntime.
func splitProfile(gz []byte) (sampleSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return sampleSplit{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return sampleSplit{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return sampleSplit{}, err
	}
	valueIdx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return sampleSplit{}, errors.New("profile: no nanoseconds sample type")
	}
	fnLayer := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		fnLayer[id] = layerOf(p.str(nameIdx))
	}
	out := sampleSplit{byPhase: map[string]map[string]int64{}, total: map[string]int64{}}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return sampleSplit{}, errors.New("profile: sample is missing its value")
		}
		v := s.values[valueIdx]
		phase := ""
		for _, l := range s.labels {
			if p.str(l[0]) == "phase" {
				phase = p.str(l[1])
			}
		}
		layer := "goruntime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost inlined frame first
				if l := fnLayer[fn]; l != "" {
					layer = l
					break walk
				}
			}
		}
		m := out.byPhase[phase]
		if m == nil {
			m = map[string]int64{}
			out.byPhase[phase] = m
		}
		m[layer] += v
		out.total[phase] += v
	}
	return out, nil
}

// rawProfile holds the fields of profile.proto the split needs.
type rawProfile struct {
	strings     []string
	sampleTypes []int64 // string-table index of each value's unit
	samples     []rawSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
}

type rawSample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // (key, str) string indexes
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the protobuf encoding of a pprof profile
// (github.com/google/pprof/proto/profile.proto). Only the fields used by
// splitProfile are kept; everything else is skipped by wire type.
func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var unit int64
			if err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					unit = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, unit)
		case 2: // sample
			var s rawSample
			if err := eachField(sub, func(n, wt int, v uint64, sub []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wt, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					if err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			if err := eachField(sub, func(n, _ int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function{id=1, name=2}
			var id uint64
			var name int64
			if err := eachField(sub, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wt int, v uint64, sub []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}
