package main

// Self-test of the benchmark at a tiny size: every named metric prints
// with its unit and a sample count, repetitions agree on their output
// digest, and the traced run's layer buckets cover the work. Run from
// this directory: go test ./ (run.sh's environment keeps caches local).

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain turns the test binary into a benchmark child when the parent
// (drive, running inside a test) starts it as one.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childFromArgs(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer(), bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		got := quartiles(c.v)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestAttributeCountsOwnFrames(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	c, err := attribute(prof.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	total := sumSelf(c)
	if c["profile.samples"] < 10 || total < 0.1 {
		t.Fatalf("profile too thin: %v samples, %.3fs", c["profile.samples"], total)
	}
	if share := c["bench.self_s"] / total; share < 0.8 {
		t.Errorf("bench share %.2f of %.3fs, want most of a busy loop", share, total)
	}
}

// metricLine matches a human-readable metric line: name, value, unit and
// sample count.
var metricLine = regexp.MustCompile(`(?m)^metric (\S+)\s+(\S+) (\S+)\s+n=(\d+)`)

// checkOutput checks the printed account and the final JSON line against
// the metric definitions.
func checkOutput(t *testing.T, out string, defs []metricDef, minN int) {
	t.Helper()
	printed := map[string][2]string{}
	for _, m := range metricLine.FindAllStringSubmatch(out, -1) {
		printed[m[1]] = [2]string{m[3], m[4]}
	}
	for _, d := range defs {
		p, ok := printed[d.name]
		if !ok {
			t.Errorf("metric %s not printed", d.name)
			continue
		}
		if n, _ := strconv.Atoi(p[1]); p[0] != d.unit || n < minN {
			t.Errorf("metric %s printed with unit %s and n=%s, want %s and n>=%d", d.name, p[0], p[1], d.unit, minN)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("last line: correct=%t attempted=%d failed=%d\n%s", last.Correct, last.Attempted, last.Failed, out)
	}
	if len(last.Metrics) != len(defs) {
		t.Errorf("last line has %d metrics, want %d", len(last.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := last.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("last line: metric %s missing or without value/unit %s", d.name, d.unit)
		}
	}
}

func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := drive(options{workload: w, seed: 1, seconds: 1, traced: true, tiny: true, root: ".."})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res.print(&out)
			checkOutput(t, out.String(), perLayer(), 1)
			// One untraced and one traced repetition ran; drive fails
			// every op whose digest differs between them.
			if got := len(res.Samples["wall_s"]) + len(res.Samples["go.other.self_s"]); got != 2 {
				t.Errorf("%d repetitions, want 2", got)
			}
			total := res.selfTotal()
			if other := median(res.Samples["go.other.self_s"]); total <= 0 || other/total > 0.05 {
				t.Errorf("go.other holds %.3fs of %.3fs profiled; layer buckets should cover the work", other, total)
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		res, err := drive(options{workload: "battle-all", seed: 2, seconds: 1, tiny: true, root: ".."})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		res.print(&out)
		checkOutput(t, out.String(), endToEnd, 2)
		if res.Digest == "" || !strings.Contains(out.String(), "digest "+res.Digest) {
			t.Errorf("digest not printed:\n%s", out.String())
		}
	})
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := result{Host: host{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}, Workload: "paper-all"}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host and workload refused: %v", err)
	}
	b.Host.NProc = 4
	if comparable(a, b) == nil {
		t.Error("results from hosts with different nproc were compared")
	}
	b = a
	b.Traced = true
	if comparable(a, b) == nil {
		t.Error("an untraced and a traced result were compared")
	}
}
