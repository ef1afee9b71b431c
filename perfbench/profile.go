package main

// Layer attribution from a CPU profile. runtime/pprof writes a gzipped
// protobuf; this file decodes just what attribution needs (each sample's
// CPU nanoseconds, its stack of locations, and the function names at each
// location) and charges every sample to one bucket:
//
//   - go.gc when any frame is a garbage-collector worker or assist;
//   - otherwise the package of the innermost repro/internal/* frame, so
//     runtime and standard-library work counts for the layer that asked
//     for it (sort.Slice inside dtrace is dtrace time);
//   - bench for the benchmark's own frames (output hashing; its test
//     binary names them repro/perfbench.*);
//   - go.other for the rest (the Go scheduler, idle workers, the profiler).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the modules under internal/, each a per-layer bucket.
var layers = []string{
	"sim", "cfs", "ule", "rbtree", "runq", "pelt", "topo", "apps", "workload", "ipc",
	"fault", "probe", "dtrace", "timeline", "scenario", "battle", "stats", "memo",
	"runner", "core", "trace",
}

// buckets is every attribution bucket, in report order.
var buckets = append(append([]string(nil), layers...), "go.gc", "go.other", "bench")

// gcFrames mark samples spent collecting garbage.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// bucketOf picks the bucket for one stack, innermost frame first.
func bucketOf(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return "go.gc"
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/perfbench.") {
			return "bench"
		}
	}
	return "go.other"
}

// attribute decodes a gzipped CPU profile and returns CPU seconds per
// bucket as "<bucket>.self_s", plus the sample count as "profile.samples".
// Profile time comes in whole sampling periods, so each bucket's share of
// the samples is applied to cpuS, the CPU time measured over the same
// interval; with cpuS <= 0 the profile's own time is returned.
func attribute(gz []byte, cpuS float64) (counters, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []sample
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id
					s.locs = appendPacked(s.locs, v, b)
				case 2: // Sample.value
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := counters{}
	for _, b := range buckets {
		out[b+".self_s"] = 0
	}
	var stack []string
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, fmt.Errorf("profile sample has %d values, want count and nanoseconds", len(s.vals))
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n < uint64(len(strs)) {
					stack = append(stack, strs[n])
				}
			}
		}
		out[bucketOf(stack)+".self_s"] += float64(s.vals[1]) / 1e9
		out["profile.samples"] += float64(s.vals[0])
	}
	if total := sumSelf(out); cpuS > 0 && total > 0 {
		for _, b := range buckets {
			out[b+".self_s"] *= cpuS / total
		}
	}
	return out, nil
}

// sumSelf adds every bucket's self time.
func sumSelf(c counters) float64 {
	t := 0.0
	for _, b := range buckets {
		t += c[b+".self_s"]
	}
	return t
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (v) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or, for length-delimited fields, its bytes
// (non-nil, possibly empty). Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b := msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			msg = msg[4:]
		default:
			return errBadProto
		}
	}
	return nil
}

var errBadProto = errors.New("malformed profile protobuf")
