package main

// One repetition runs in a child process of its own, so its peak RSS and
// set-up time are its own and no heap, memo or global knob carries over
// from another repetition. The child pins every process-global knob,
// sets up, reports when the first trial is ready, runs one unit and
// prints a childResult as JSON on standard output.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/sim"
)

// poolWidth is the trial-pool width and the GOMAXPROCS ceiling.
const poolWidth = 2

// childResult is what one repetition reports to the parent.
type childResult struct {
	// ReadyUnixNano is the wall clock when set-up finished; the parent
	// subtracts the moment it started the process.
	ReadyUnixNano int64 `json:"ready_unix_nano"`
	// WallS and CPUS cover the unit only: first call to last result.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	Ops   []op    `json:"ops,omitempty"`
	// Spans are the calls into each layer, set-up included.
	Spans []span `json:"spans,omitempty"`
	// Counters are per-layer counts: report counters, memo and dedup
	// deltas, runtime/metrics deltas and, when traced, profile buckets.
	Counters counters `json:"counters,omitempty"`
}

// span is one timed call, in seconds since the child's set-up began.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory; the benchmark calls it from one
// goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) span(name, parent string, fn func()) {
	start := time.Since(t.t0).Seconds()
	fn()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: time.Since(t.t0).Seconds()})
}

// mixSeed maps the workload seed onto a non-zero base seed. Zero would
// select the drivers' paper-tuned explicit seeds (and the baseline's seed
// universe), so every seed takes the derived-seed path instead.
func mixSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z)
}

// pinKnobs fixes every process-global setting that steers trials.
func pinKnobs(seed int64) {
	if runtime.NumCPU() > poolWidth {
		runtime.GOMAXPROCS(poolWidth)
	}
	runner.SetWorkers(poolWidth)
	core.SetBaseSeed(mixSeed(seed))
	core.SetTrialTimeout(0)
	sim.SetForceEventHeap(false)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeMetrics are the runtime/metrics samples read around a unit.
var runtimeMetrics = []struct{ sample, name string }{
	{"/gc/heap/allocs:bytes", "go.alloc_bytes"},
	{"/gc/cycles/total:gc-cycles", "go.gc_cycles"},
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, m := range runtimeMetrics {
		s[i].Name = m.sample
	}
	metrics.Read(s)
	return s
}

// runChild executes one repetition. With setupOnly it stops once set-up
// is done; with traced it also profiles the unit and attributes the
// samples to layers.
func runChild(workload, root string, sz size, seed int64, traced, setupOnly bool) (*childResult, error) {
	pinKnobs(seed)
	tr := &tracer{t0: time.Now()}
	u, err := prepare(workload, root, sz, tr)
	if err != nil {
		return nil, err
	}
	res := &childResult{ReadyUnixNano: time.Now().UnixNano(), Counters: counters{}}
	if setupOnly {
		return res, nil
	}
	// A fresh in-memory memo per repetition, as one schedbattle process
	// has; read its counters and the dedup counter as deltas.
	cache, err := memo.New("")
	if err != nil {
		return nil, err
	}
	core.SetTrialCache(cache)
	dedup0 := core.DedupedTrials()
	rt0 := readRuntime()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	cpu0, wall0 := cpuSeconds(), time.Now()
	tr.span("unit", "", func() { res.Ops = u.run(tr, res.Counters) })
	res.WallS = time.Since(wall0).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	if traced {
		pprof.StopCPUProfile()
	}

	rt1 := readRuntime()
	for i, m := range runtimeMetrics {
		res.Counters[m.name] = float64(rt1[i].Value.Uint64() - rt0[i].Value.Uint64())
	}
	st := cache.Stats()
	res.Counters["core.deduped"] = float64(core.DedupedTrials() - dedup0)
	res.Counters["memo.hits"] = float64(st.Hits)
	res.Counters["memo.misses"] = float64(st.Misses)
	res.Counters["memo.bytes_stored"] = float64(st.BytesWritten)
	if traced {
		self, err := attribute(prof.Bytes(), res.CPUS)
		if err != nil {
			return nil, fmt.Errorf("reading CPU profile: %w", err)
		}
		for k, v := range self {
			res.Counters[k] = v
		}
		if u.count != nil {
			u.count(res.Counters)
		}
	}
	res.Spans = tr.spans
	return res, nil
}

// childMain is the entry point of a child process.
func childMain(workload, root string, sz size, seed int64, traced, setupOnly bool) int {
	res, err := runChild(workload, root, sz, seed, traced, setupOnly)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	return 0
}
