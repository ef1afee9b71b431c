package timeline_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/timeline"
)

// oracleCounters exercises the counter path: plain and escaped names,
// integral, fractional, tiny, huge and negative values.
var oracleCounters = []timeline.CounterTrack{
	{Name: "runq.core0", Points: [][2]float64{{0, 0}, {1000, 2}, {2500.5, 1}, {1e7, 3}}},
	{Name: "odd \"name\"\t\\", Points: [][2]float64{{0.125, -3}, {1e21, 1.5e-7}, {123456789.123, 0.1}}},
}

// recordTrial runs one compiled scenario trial for window with a timeline
// recorder attached, the way the scenario engine would, and closes it.
func recordTrial(tb testing.TB, trial core.Trial[scenario.TrialReport], opts timeline.Options, window time.Duration) *timeline.Recorder {
	tb.Helper()
	m := core.NewMachine(trial.Machine)
	trial.Workload(m)
	r, err := timeline.Attach(m, opts)
	if err != nil {
		tb.Fatal(err)
	}
	m.Run(window)
	r.Close()
	return r
}

// TestPerfettoMatchesOracle pins the single-pass renderer byte for byte
// against the original one over every bundled scenario: every trial under
// default options, and the first trial under a tiny budget, each single
// track group, and a window past 1 s (e-notation timestamps).
func TestPerfettoMatchesOracle(t *testing.T) {
	specs, err := scenario.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name      string
		opts      timeline.Options
		minWindow time.Duration
	}{
		{name: "budget-4096", opts: timeline.Options{MaxBytes: 4096}},
		{name: "slices", opts: timeline.Options{Tracks: []string{timeline.TrackSlices}}},
		{name: "instants", opts: timeline.Options{Tracks: []string{timeline.TrackInstants}}},
		{name: "counters", opts: timeline.Options{Tracks: []string{timeline.TrackCounters}}},
		{name: "long", minWindow: 1100 * time.Millisecond},
	}
	check := func(t *testing.T, label string, r *timeline.Recorder, counters []timeline.CounterTrack) []byte {
		t.Helper()
		got := r.AppendPerfetto(nil, counters)
		want := timeline.AppendPerfettoOracle(r, nil, counters)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(i-80, 0)
			t.Fatalf("%s: render differs from oracle at byte %d (len %d vs %d):\n got %q\nwant %q",
				label, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
		}
		// Appending after existing bytes must not disturb them.
		prefix := []byte("prefix")
		if got := r.AppendPerfetto(prefix, nil); !bytes.Equal(got, timeline.AppendPerfettoOracle(r, []byte("prefix"), nil)) {
			t.Fatalf("%s: render into a non-empty buffer differs from oracle", label)
		}
		return got
	}
	var sawENotation bool
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			trials, err := sp.Compile(0.05)
			if err != nil {
				t.Fatal(err)
			}
			for _, trial := range trials {
				r := recordTrial(t, trial, timeline.Options{}, trial.Window)
				check(t, trial.Name+"/default", r, nil)
				check(t, trial.Name+"/default+counters", r, oracleCounters)
			}
			for _, v := range variants {
				trial := trials[0]
				r := recordTrial(t, trial, v.opts, max(trial.Window, v.minWindow))
				got := check(t, trial.Name+"/"+v.name, r, oracleCounters)
				if v.minWindow > time.Second && bytes.Contains(got, []byte(`"ts":1.`)) && bytes.Contains(got, []byte("e+06,")) {
					sawENotation = true
				}
			}
		})
	}
	if !sawENotation {
		t.Fatal("no render carried an e-notation timestamp (a slice past 1 s)")
	}
}

// oversubscribedRecorder records the first trial of the bundled
// oversubscribed scenario (256 workers on 8 cores) at the given scale.
func oversubscribedRecorder(tb testing.TB, scale float64, opts timeline.Options) *timeline.Recorder {
	tb.Helper()
	sp, err := scenario.LoadBuiltin("oversubscribed")
	if err != nil {
		tb.Fatal(err)
	}
	trials, err := sp.Compile(scale)
	if err != nil {
		tb.Fatal(err)
	}
	return recordTrial(tb, trials[0], opts, trials[0].Window)
}

// TestRenderedSizeTracksBudget pins the MaxBytes contract ("approximately
// caps the rendered JSON"): with the budget saturated, the render stays
// within 1.25x of it.
func TestRenderedSizeTracksBudget(t *testing.T) {
	for _, budget := range []int64{4096, 64 << 10, 1 << 20} {
		r := oversubscribedRecorder(t, 0.05, timeline.Options{MaxBytes: budget})
		if r.Summary().DroppedEvents == 0 {
			t.Fatalf("budget %d: no events dropped; the fixture does not saturate it", budget)
		}
		n := len(r.AppendPerfetto(nil, nil))
		t.Logf("budget %d: rendered %d bytes (%.2fx)", budget, n, float64(n)/float64(budget))
		if float64(n) > 1.25*float64(budget) {
			t.Errorf("budget %d: rendered %d bytes, more than 1.25x the budget", budget, n)
		}
	}
}

// BenchmarkAppendPerfetto renders an oversubscribed-sized recorder into a
// nil buffer, as the scenario engine does for every timelined trial.
func BenchmarkAppendPerfetto(b *testing.B) {
	r := oversubscribedRecorder(b, 0.05, timeline.Options{})
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = len(r.AppendPerfetto(nil, nil))
	}
	b.StopTimer()
	b.SetBytes(int64(n))
	b.ReportMetric(float64(r.Summary().Slices), "slices")
}
