package main

// The three workloads. Each one is a closed loop with a single client: a
// repetition runs one unit of work (every paper experiment, every bundled
// battle plus the ci.json gate, or four traced scenario runs with their
// exports) and the next repetition starts when it has finished. Every
// call goes through the repo's public functions, so the benchmark times
// what a researcher running schedbattle waits for.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/battle"
	"repro/internal/core"
	"repro/internal/scenario"
)

// size holds each workload's simulated-duration scale (the CLI's -scale).
type size struct{ paper, battle, export float64 }

var (
	// fullSize puts one repetition at 2–10 s on a 2-CPU host, so a 40 s
	// run holds at least four. paper-all barely shrinks below 0.24: fig8
	// and fig9 sit on their simulated-window floors.
	fullSize = size{paper: 0.1, battle: 0.1, export: 0.02}
	// tinySize is for the self-test only.
	tinySize = size{paper: 0.01, battle: 0.02, export: 0.005}
)

const (
	battleReps   = 5
	exportSeeds  = 2
	baselinePath = "baselines/ci.json"
)

// exportScenarios are the scenarios the trace-export workload runs with
// decision tracing and the thread-state timeline enabled.
var exportScenarios = []string{"web-tail", "colocation", "hotplug-storm", "oversubscribed"}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-all", "battle-all", "trace-export"}

// op is one operation of a unit: an experiment, a battle, a baseline
// check, a scenario trial or an export write. Digest hashes everything the
// operation produced; Err is set when it failed.
type op struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Err    string `json:"err,omitempty"`
}

// unit is a prepared workload: setup has run, and run executes one
// repetition. count, when set, reads the layer counters a traced
// repetition left behind (it runs after the measured interval).
type unit struct {
	run   func(tr *tracer, c counters) []op
	count func(c counters)
}

// counters collects per-layer counts read from the reports a unit
// produced; keys are per-layer metric names.
type counters map[string]float64

// prepare runs a workload's setup: loading, validating and compiling
// everything the first trial needs. root is the repository root.
func prepare(name, root string, sz size, tr *tracer) (*unit, error) {
	switch name {
	case "paper-all":
		return preparePaper(sz.paper, tr), nil
	case "battle-all":
		return prepareBattle(root, sz.battle, tr)
	case "trace-export":
		return prepareExport(root, sz.export, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

// digest hashes byte sections with length framing, so section boundaries
// cannot shift without changing the result.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// guard runs fn and turns a panic into a failed op.
func guard(name string, fn func() op) (o op) {
	defer func() {
		if r := recover(); r != nil {
			o = op{Name: name, Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	return fn()
}

func failed(name string, err error) op { return op{Name: name, Err: err.Error()} }

// preparePaper: every registered paper experiment, in registration order,
// as `schedbattle -all` runs them. The digest covers the printed result
// and every series the -series flag would export.
func preparePaper(scale float64, tr *tracer) *unit {
	var exps []core.Experiment
	tr.span("compile", "setup", func() { exps = core.Experiments() })
	return &unit{run: func(tr *tracer, _ counters) []op {
		ops := make([]op, 0, len(exps))
		for _, e := range exps {
			name := "exp." + e.ID
			tr.span(name, "unit", func() {
				ops = append(ops, guard(name, func() op {
					res := e.Run(scale)
					parts := [][]byte{[]byte(res.String())}
					sets := make([]string, 0, len(res.Series))
					for s := range res.Series {
						sets = append(sets, s)
					}
					sort.Strings(sets)
					for _, s := range sets {
						set := res.Series[s]
						for _, n := range set.Names() {
							parts = append(parts, []byte(s+"/"+n), []byte(set.Get(n).Gnuplot()))
						}
					}
					return op{Name: name, Digest: digest(parts...)}
				}))
			})
		}
		return ops
	}}
}

// prepareBattle: `schedbattle -battle all -replications 5` followed by
// `-check baselines/ci.json`, sharing one in-memory memo per repetition as
// the CLI does.
func prepareBattle(root string, scale float64, tr *tracer) (*unit, error) {
	var (
		specs []*scenario.Spec
		base  *battle.Baseline
		err   error
	)
	tr.span("compile", "setup", func() {
		var names []string
		if names, err = scenario.BuiltinNames(); err != nil {
			return
		}
		for _, n := range names {
			var sp *scenario.Spec
			if sp, err = scenario.Load(n); err != nil {
				return
			}
			if _, err = sp.WithSeeds(sp.ReplicationSeeds(battleReps)).Compile(scale); err != nil {
				return
			}
			specs = append(specs, sp)
		}
		base, err = battle.LoadBaseline(filepath.Join(root, baselinePath))
	})
	if err != nil {
		return nil, err
	}
	opt := battle.Options{Replications: battleReps, Scale: scale}
	run := func(tr *tracer, _ counters) []op {
		var ops []op
		for _, sp := range specs {
			name := "battle." + sp.Name
			tr.span(name, "unit", func() {
				ops = append(ops, guard(name, func() op {
					rep, err := battle.Run(sp, opt)
					if err != nil {
						return failed(name, err)
					}
					js, err := scenario.MarshalReport(rep)
					if err != nil {
						return failed(name, err)
					}
					return op{Name: name, Digest: digest(js, []byte(rep.Markdown()))}
				}))
			})
		}
		tr.span("check", "unit", func() { ops = append(ops, checkOps(base)...) })
		return ops
	}
	// Battle reports do not expose their trials, so a traced repetition
	// re-reads them afterwards: the same scenario runs, answered from the
	// repetition's memo, outside the measured interval.
	count := func(c counters) {
		for _, sp := range specs {
			rep, err := sp.WithSeeds(sp.ReplicationSeeds(battleReps)).Run(scale)
			if err != nil {
				continue
			}
			countTrials(rep, c)
		}
	}
	return &unit{run: run, count: count}, nil
}

// checkOps runs the baseline gate: one op per baseline scenario, failed
// when any of its cells regressed or went missing.
func checkOps(base *battle.Baseline) (ops []op) {
	defer func() {
		if r := recover(); r != nil {
			ops = []op{{Name: "check", Err: fmt.Sprintf("panic: %v", r)}}
		}
	}()
	regs, reports, err := battle.Check(base)
	if err != nil {
		return []op{failed("check", err)}
	}
	bad := map[string][]string{}
	for _, r := range regs {
		bad[r.Scenario] = append(bad[r.Scenario], r.String())
	}
	for _, rep := range reports {
		name := "check." + rep.Scenario
		js, err := scenario.MarshalReport(rep)
		if err != nil {
			ops = append(ops, failed(name, err))
			continue
		}
		o := op{Name: name, Digest: digest(js)}
		if msgs := bad[rep.Scenario]; len(msgs) > 0 {
			o.Err = "regressed: " + strings.Join(msgs, "; ")
		}
		ops = append(ops, o)
	}
	return ops
}

// prepareExport: `schedbattle -scenario <s> -trace <dir> -trace-csv <f>
// -timeline <dir> -out <f>` for four scenarios. Exports land in a
// scratch directory under root that each repetition removes.
func prepareExport(root string, scale float64, tr *tracer) (*unit, error) {
	var (
		specs []*scenario.Spec
		err   error
	)
	tr.span("compile", "setup", func() {
		for _, n := range exportScenarios {
			var sp *scenario.Spec
			if sp, err = scenario.Load(n); err != nil {
				return
			}
			// Bundled specs are shared read-only: clone before enabling
			// the default trace and timeline blocks, as the CLI does.
			cp := *sp
			if cp.Trace == nil {
				cp.Trace = &scenario.TraceSpec{}
			}
			if cp.Timeline == nil {
				cp.Timeline = &scenario.TimelineSpec{}
			}
			// Two replication seeds per scenario: the headroom search's
			// cost varies a lot between random universes, and four
			// oversubscribed trials balance better on two workers than two.
			rs := cp.WithSeeds(cp.ReplicationSeeds(exportSeeds))
			if _, err = rs.Compile(scale); err != nil {
				return
			}
			specs = append(specs, rs)
		}
	})
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, buildDir, fmt.Sprintf("export-%d", os.Getpid()))
	run := func(tr *tracer, c counters) []op {
		defer os.RemoveAll(dir)
		var ops []op
		for _, sp := range specs {
			var rep *scenario.Report
			name := "scenario." + sp.Name
			tr.span(name, "unit", func() {
				var err error
				rep, err = sp.Run(scale)
				if err != nil {
					ops = append(ops, failed(name, err))
					rep = nil
				}
			})
			if rep == nil {
				continue
			}
			for i := range rep.Trials {
				t := &rep.Trials[i]
				js, err := scenario.MarshalReport(t)
				if err != nil {
					ops = append(ops, failed(t.Name, err))
					continue
				}
				ops = append(ops, op{Name: t.Name, Digest: digest(js, t.TraceData, t.TimelineData)})
			}
			countTrials(rep, c)
			name = "export." + sp.Name
			tr.span("export", "unit", func() {
				ops = append(ops, guard(name, func() op { return writeExports(name, filepath.Join(dir, sp.Name), rep) }))
			})
		}
		return ops
	}
	return &unit{run: run}, nil
}

// writeExports writes what the CLI's -out, -trace, -trace-csv and
// -timeline flags write, and digests the bytes written.
func writeExports(name, dir string, rep *scenario.Report) op {
	js, err := scenario.MarshalReport(rep)
	if err != nil {
		return failed(name, err)
	}
	csv, err := rep.TraceCSV()
	if err != nil {
		return failed(name, err)
	}
	files := map[string][]byte{"report.json": js, "trace.csv": csv}
	for i := range rep.Trials {
		t := &rep.Trials[i]
		flat := strings.ReplaceAll(t.Name, "/", "_")
		if len(t.TraceData) > 0 {
			files[filepath.Join("trace", flat+".dtrace")] = t.TraceData
		}
		if len(t.TimelineData) > 0 {
			files[filepath.Join("timeline", flat+".trace.json")] = t.TimelineData
		}
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	parts := make([][]byte, 0, 2*len(paths))
	for _, p := range paths {
		full := filepath.Join(dir, p)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return failed(name, err)
		}
		if err := os.WriteFile(full, files[p], 0o644); err != nil {
			return failed(name, err)
		}
		parts = append(parts, []byte(p), files[p])
	}
	return op{Name: name, Digest: digest(parts...)}
}

// countTrials adds a scenario report's engine and observer counts.
func countTrials(rep *scenario.Report, c counters) {
	for i := range rep.Trials {
		t := &rep.Trials[i]
		c["sim.events"] += float64(t.Events)
		if t.Trace != nil {
			c["dtrace.decisions"] += float64(t.Trace.Summary.Decisions)
		}
		c["dtrace.bytes"] += float64(len(t.TraceData))
		if t.Timeline != nil {
			c["timeline.slices"] += float64(t.Timeline.Summary.Slices)
		}
		c["timeline.bytes"] += float64(len(t.TimelineData))
	}
}
