// Command perfbench is the repository's host-time benchmark: it runs one
// workload of the ULE-vs-CFS simulator for a fixed time, checks that the
// outputs are correct and repeatable, and prints end-to-end metrics
// (untraced) or per-layer metrics (traced). See README.md.
//
//	perfbench --workload paper-all --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable account with sample counts, quartiles and the output
// digest. Run it from the repository root (run.sh builds and starts it).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// childEnv marks a child process; its value is unused.
const childEnv = "PERFBENCH_CHILD"

// setupProbes is how many extra set-up-only children a measured run
// starts, so setup_s is a median over several set-ups.
const setupProbes = 10

// buildDir holds build outputs and scratch files, relative to the root.
const buildDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// layerCounters are the traced run's per-layer counts and ratios.
var layerCounters = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"runner.busy_frac", "ratio"},
	{"core.deduped", "count"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.hit_frac", "ratio"},
	{"memo.bytes_stored", "bytes"},
	{"dtrace.decisions", "count"},
	{"dtrace.bytes", "bytes"},
	{"timeline.slices", "count"},
	{"timeline.bytes", "bytes"},
	{"go.alloc_bytes", "bytes"},
	{"go.gc_cycles", "count"},
	{"trace_overhead_frac", "ratio"},
}

// spanNames lists every span the workloads record, so each becomes a
// span.<name>.wall_s metric on every workload (0 where it does not run).
func spanNames() []string {
	names := []string{"compile", "check", "export"}
	for _, e := range core.Experiments() {
		names = append(names, "exp."+e.ID)
	}
	if lib, err := scenario.BuiltinNames(); err == nil {
		for _, n := range lib {
			names = append(names, "battle."+n)
		}
	}
	for _, n := range exportScenarios {
		names = append(names, "scenario."+n)
	}
	return names
}

// perLayer is every traced metric, in report order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, b := range buckets {
		defs = append(defs, metricDef{b + ".self_s", "s"})
	}
	defs = append(defs, layerCounters...)
	for _, n := range spanNames() {
		defs = append(defs, metricDef{"span." + n + ".wall_s", "s"})
	}
	return defs
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childFromArgs(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// childFromArgs parses a child's command line (see childArgs).
func childFromArgs(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	root := fs.String("root", ".", "")
	seed := fs.Int64("seed", 0, "")
	traced := fs.Bool("traced", false, "")
	setupOnly := fs.Bool("setup-only", false, "")
	tiny := fs.Bool("tiny", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := fullSize
	if *tiny {
		sz = tinySize
	}
	return childMain(*workload, *root, sz, *seed, *traced, *setupOnly)
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
	root     string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{root: "."}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (installed through core.SetBaseSeed)")
	seconds := fs.Int("seconds", 40, "measure for this many seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := fs.String("out", "", "also write the full result (host stamp, samples, digest) to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: perfbench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout)
	}
	o.seconds = float64(*seconds)
	o.traced = *trace == 1
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	if !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", o.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	res, err := drive(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout)
	if *out != "" {
		js, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(js, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return 0
}

// host is the stamp every result carries; results from different hosts
// are not compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostStamp() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: min(runtime.NumCPU(), poolWidth), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// result is one invocation's outcome: every sample of every metric.
type result struct {
	Host      host                 `json:"host"`
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Traced    bool                 `json:"traced"`
	Tiny      bool                 `json:"tiny,omitempty"`
	Digest    string               `json:"digest"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Defs      []metricDef          `json:"-"`
	Units     map[string]string    `json:"units"`
	Samples   map[string][]float64 `json:"samples"`
	Log       []string             `json:"log"`
	Spans     []span               `json:"spans,omitempty"`
}

func (r *result) add(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

func (r *result) logf(format string, args ...any) {
	r.Log = append(r.Log, fmt.Sprintf(format, args...))
}

// rep is one finished child process.
type rep struct {
	*childResult
	setupS, rssMB float64
}

// childArgs builds a child's command line.
func (o options) childArgs(traced, setupOnly bool) []string {
	return []string{
		"-workload", o.workload, "-root", o.root, "-seed", strconv.FormatInt(o.seed, 10),
		"-traced=" + strconv.FormatBool(traced), "-setup-only=" + strconv.FormatBool(setupOnly),
		"-tiny=" + strconv.FormatBool(o.tiny),
	}
}

// spawn runs one child to completion and measures it from outside.
func (o options) spawn(traced, setupOnly bool) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	cmd := exec.Command(exe, o.childArgs(traced, setupOnly)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", o.workload, err)
	}
	var cr childResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		return rep{}, fmt.Errorf("%s repetition: decoding result: %w", o.workload, err)
	}
	r := rep{childResult: &cr, setupS: time.Duration(cr.ReadyUnixNano - start.UnixNano()).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// drive runs the closed loop: repetitions back to back until the next
// one would end past the time budget (at least two untraced repetitions,
// or one untraced/traced pair when traced).
func drive(o options) (*result, error) {
	res := &result{
		Host: hostStamp(), Workload: o.workload, Seed: o.seed, Traced: o.traced, Tiny: o.tiny,
		Units: map[string]string{}, Samples: map[string][]float64{},
	}
	// want holds the first repetition's digest per operation; every later
	// repetition, traced or not, must reproduce it.
	var want map[string]string
	check := func(label string, r rep) {
		res.Attempted += len(r.Ops)
		for _, p := range r.Ops {
			switch d, ok := want[p.Name]; {
			case p.Err != "":
				res.Failed++
				res.logf("FAILED %s %s: %s", label, p.Name, p.Err)
			case ok && d != p.Digest:
				res.Failed++
				res.logf("FAILED %s %s: digest %.12s differs from the first repetition's %.12s", label, p.Name, p.Digest, d)
			}
		}
		if want == nil {
			want = map[string]string{}
			for _, p := range r.Ops {
				want[p.Name] = p.Digest
			}
			res.Digest = opsDigest(r.Ops)
		}
		res.logf("%-9s wall_s=%.4f cpu_s=%.4f setup_s=%.4f peak_rss_mb=%.1f ops=%d digest=%.16s",
			label, r.WallS, r.CPUS, r.setupS, r.rssMB, len(r.Ops), opsDigest(r.Ops))
	}

	if !o.traced {
		for i := 0; i < setupProbes; i++ {
			r, err := o.spawn(false, true)
			if err != nil {
				return nil, err
			}
			res.add("setup_s", r.setupS)
		}
	}
	start := time.Now()
	var untraced, traced []rep
	for n := 1; ; n++ {
		r, err := o.spawn(false, false)
		if err != nil {
			return nil, err
		}
		check(fmt.Sprintf("rep %d", n), r)
		untraced = append(untraced, r)
		if o.traced {
			t, err := o.spawn(true, false)
			if err != nil {
				return nil, err
			}
			check(fmt.Sprintf("traced %d", n), t)
			traced = append(traced, t)
		}
		elapsed := time.Since(start).Seconds()
		if (o.traced || n >= 2) && elapsed+elapsed/float64(n) > o.seconds {
			break
		}
	}

	for _, r := range untraced {
		res.add("setup_s", r.setupS)
		res.add("wall_s", r.WallS)
		res.add("cpu_s", r.CPUS)
		res.add("peak_rss_mb", r.rssMB)
	}
	res.Defs = endToEnd
	if o.traced {
		res.Defs = perLayer()
		wallU := median(res.Samples["wall_s"])
		for _, r := range untraced {
			res.add("runner.busy_frac", r.CPUS/(r.WallS*poolWidth))
		}
		for _, t := range traced {
			c := t.Counters
			for _, b := range buckets {
				res.add(b+".self_s", c[b+".self_s"])
			}
			for _, k := range []string{"sim.events", "core.deduped", "memo.hits", "memo.misses", "memo.bytes_stored",
				"dtrace.decisions", "dtrace.bytes", "timeline.slices", "timeline.bytes", "go.alloc_bytes", "go.gc_cycles"} {
				res.add(k, c[k])
			}
			res.add("sim.ns_per_event", ratio(c["sim.self_s"]*1e9, c["sim.events"]))
			res.add("memo.hit_frac", ratio(c["memo.hits"], c["memo.hits"]+c["memo.misses"]))
			res.add("trace_overhead_frac", ratio(t.WallS, wallU)-1)
			walls := map[string]float64{}
			for _, s := range t.Spans {
				walls[s.Name] += s.End - s.Start
			}
			for _, n := range spanNames() {
				res.add("span."+n+".wall_s", walls[n])
			}
			res.add("profile.samples", c["profile.samples"])
		}
		res.Spans = traced[len(traced)-1].Spans
	}
	for _, d := range res.Defs {
		res.Units[d.name] = d.unit
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opsDigest folds a repetition's operation digests into one.
func opsDigest(ops []op) string {
	parts := make([][]byte, 0, 2*len(ops))
	for _, p := range ops {
		parts = append(parts, []byte(p.Name), []byte(p.Digest))
	}
	return digest(parts...)
}

// print writes the human-readable account and the final JSON line.
func (r *result) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
	fmt.Fprintf(w, "workload %s seed %d traced=%t pool=%d\n", r.Workload, r.Seed, r.Traced, poolWidth)
	for _, l := range r.Log {
		fmt.Fprintln(w, l)
	}
	if r.Traced {
		for _, s := range r.Spans {
			fmt.Fprintf(w, "span %-28s parent=%-8s %9.4fs .. %9.4fs\n", s.Name, s.Parent, s.Start, s.End)
		}
		if self := r.selfTotal(); self > 0 {
			fmt.Fprintf(w, "profile samples=%.0f go.other share=%.3f\n",
				median(r.Samples["profile.samples"]), median(r.Samples["go.other.self_s"])/self)
		}
		if median(r.Samples["sim.events"]) == 0 {
			fmt.Fprintln(w, "note: sim.events and sim.ns_per_event are n/a here: the experiment drivers expose no event count")
		}
	}
	metrics := map[string]any{}
	for _, d := range r.Defs {
		v := r.Samples[d.name]
		q := quartiles(v)
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d p25=%.6g p75=%.6g\n", d.name, median(v), d.unit, len(v), q[0], q[2])
		metrics[d.name] = map[string]any{"value": median(v), "unit": d.unit}
	}
	fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d (failed / attempted operations)\n", "fail_frac",
		ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Attempted)
	fmt.Fprintf(w, "digest %s\n", r.Digest)
	line, _ := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// selfTotal adds the medians of every bucket's self time.
func (r *result) selfTotal() float64 {
	t := 0.0
	for _, b := range buckets {
		t += median(r.Samples[b+".self_s"])
	}
	return t
}

// median and quartiles follow Python's statistics.quantiles(v, n=4)
// (exclusive method), which is how runs are compared.
func median(v []float64) float64 { return quartiles(v)[1] }

func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// compareFiles prints the median change per metric between two -out
// files, refusing files from different hosts or workloads.
func compareFiles(paths []string, w io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: -compare needs two result files")
		return 2
	}
	var rs [2]result
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := rs[0], rs[1]
	if err := comparable(a, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare %s with %s: %v\n", paths[0], paths[1], err)
		return 2
	}
	names := make([]string, 0, len(a.Units))
	for n := range a.Units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := median(a.Samples[n]), median(b.Samples[n])
		fmt.Fprintf(w, "%-34s %14.6g -> %-14.6g %+7.2f%% %s\n", n, ma, mb, 100*ratio(mb-ma, ma), a.Units[n])
	}
	same := "identical"
	if a.Digest != b.Digest {
		same = "DIFFERENT"
	}
	fmt.Fprintf(w, "outputs %s (%.16s vs %.16s)\n", same, a.Digest, b.Digest)
	return 0
}

func comparable(a, b result) error {
	switch {
	case a.Host != b.Host:
		return fmt.Errorf("hosts differ: %+v vs %+v", a.Host, b.Host)
	case a.Workload != b.Workload || a.Traced != b.Traced || a.Tiny != b.Tiny:
		return errors.New("workload, trace mode or size differ")
	}
	return nil
}
