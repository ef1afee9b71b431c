package timeline

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// record runs a tiny deterministic fixture and returns the recorder plus
// its exported trace bytes.
func record(t testing.TB, counters []CounterTrack) (*Recorder, []byte) {
	t.Helper()
	m := sim.NewMachine(topo.SingleCore(), sim.NewFIFO(), sim.Options{Seed: 11})
	r, err := Attach(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.StartThread("a", "app", 0, &runSleeper{run: 500 * time.Microsecond, sleep: 300 * time.Microsecond})
	m.StartThread("b", "app", 0, &runSleeper{run: 200 * time.Microsecond, sleep: 600 * time.Microsecond})
	m.Run(5 * time.Millisecond)
	r.Close()
	return r, r.AppendPerfetto(nil, counters)
}

// TestPerfettoGoldenShape is the golden test the acceptance criteria ask
// for: the export must be valid trace-event JSON with the envelope,
// metadata, slices, and instants Perfetto's legacy importer understands.
func TestPerfettoGoldenShape(t *testing.T) {
	counters := []CounterTrack{{Name: "runq.core0", Points: [][2]float64{{0, 0}, {1000, 2}, {2000, 1}}}}
	r, data := record(t, counters)

	if !json.Valid(data) {
		t.Fatalf("export is not valid JSON:\n%s", data)
	}
	tr, err := DecodeTrace(data)
	if err != nil {
		t.Fatalf("DecodeTrace rejected own export: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	if tr.OtherData.Schema != SchemaName {
		t.Fatalf("schema = %q, want %q", tr.OtherData.Schema, SchemaName)
	}

	var metas, slices, instants, cnts int
	var procNamed, cpuNamed bool
	for _, e := range tr.Events {
		switch e.Ph {
		case "M":
			metas++
			if e.Name == "process_name" {
				procNamed = true
			}
			if e.Name == "thread_name" {
				if n, _ := e.Args["name"].(string); n == "cpu0" {
					cpuNamed = true
				}
			}
		case "X":
			slices++
			if !strings.Contains(e.Name, " T") {
				t.Fatalf("slice name %q missing thread id suffix", e.Name)
			}
			if _, ok := e.Args["tid"].(float64); !ok {
				t.Fatalf("slice args missing tid: %+v", e.Args)
			}
			if _, ok := e.Args["wait_us"].(float64); !ok {
				t.Fatalf("slice args missing wait_us: %+v", e.Args)
			}
		case "i":
			instants++
			if e.Scope != "t" {
				t.Fatalf("instant scope = %q, want t", e.Scope)
			}
			if e.Name != "wake" && e.Name != "migrate" && e.Name != "steal" {
				t.Fatalf("unexpected instant name %q", e.Name)
			}
		case "C":
			cnts++
			if e.Name != "runq.core0" {
				t.Fatalf("counter name = %q", e.Name)
			}
			if _, ok := e.Args["value"].(float64); !ok {
				t.Fatalf("counter args missing value: %+v", e.Args)
			}
		}
	}
	if !procNamed || !cpuNamed {
		t.Fatalf("missing metadata: process_name=%v cpu0=%v", procNamed, cpuNamed)
	}
	if slices == 0 || instants == 0 {
		t.Fatalf("export has %d slices, %d instants — want both > 0", slices, instants)
	}
	if cnts != 3 {
		t.Fatalf("counter events = %d, want 3", cnts)
	}
	if got := uint64(slices); got != r.Summary().Slices {
		t.Fatalf("exported %d slices, recorder counted %d", got, r.Summary().Slices)
	}
}

// TestPerfettoDeterministic: same fixture twice → byte-identical export.
func TestPerfettoDeterministic(t *testing.T) {
	_, a := record(t, nil)
	_, b := record(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different trace bytes")
	}
}

func TestDecodeTraceRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"not json", `{`, "decoding trace JSON"},
		{"no events", `{"displayTimeUnit":"ms"}`, "no traceEvents"},
		{"unknown phase", `{"traceEvents":[{"ph":"Z","ts":1}]}`, `unknown phase "Z"`},
		{"nameless slice", `{"traceEvents":[{"ph":"X","ts":1,"dur":1}]}`, "without a name"},
		{"negative ts", `{"traceEvents":[{"ph":"X","name":"x","ts":-1,"dur":1}]}`, "negative ts"},
		{"negative instant", `{"traceEvents":[{"ph":"i","name":"wake","ts":-5}]}`, "negative ts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeTrace([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	if _, err := DecodeTrace([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Fatalf("empty traceEvents must be accepted: %v", err)
	}
}

func TestTimehistRender(t *testing.T) {
	_, data := record(t, nil)
	tr, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Timehist(&buf, 10, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"time(ms)", "cpu", "task", "wait(us)", "run(us)",
		"worst wakeup dispatch latencies:", "more slices"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timehist output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("suspiciously short output:\n%s", out)
	}

	// maxRows=0 renders everything; the truncation marker must vanish.
	buf.Reset()
	if err := tr.Timehist(&buf, 0, 3); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "more slices") {
		t.Fatal("maxRows=0 must not truncate")
	}

	// A trace without slices renders the empty-latency message.
	empty := &Trace{Events: []TraceEvent{{Ph: "M", Name: "process_name"}}}
	buf.Reset()
	if err := empty.Timehist(&buf, 0, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no wakeup dispatches recorded") {
		t.Fatalf("empty trace output:\n%s", buf.String())
	}
}

func TestAppendJSONStringEscapes(t *testing.T) {
	got := string(appendJSONString(nil, "a\"b\\c\nd"))
	want := `"a\"b\\c\u000ad"`
	if got != want {
		t.Fatalf("appendJSONString = %s, want %s", got, want)
	}
	var s string
	if err := json.Unmarshal([]byte(got), &s); err != nil || s != "a\"b\\c\nd" {
		t.Fatalf("round-trip failed: %q, %v", s, err)
	}
}

// usWant is appendUS's reference: ns/1e3 in Go's shortest 'g' form.
func usWant(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'g', -1, 64)
}

// TestAppendUSMatchesStrconv checks the integer fast path against strconv
// densely below 3 ms, around every power of ten, at the 1 s e-notation
// switch, at the 2^50 fallback edge, and at the int64 extremes.
func TestAppendUSMatchesStrconv(t *testing.T) {
	var buf []byte
	check := func(ns int64) {
		buf = appendUS(buf[:0], ns)
		if want := usWant(ns); string(buf) != want {
			t.Fatalf("appendUS(%d) = %q, want %q", ns, buf, want)
		}
	}
	for ns := int64(-5); ns < 3e6; ns++ {
		check(ns)
	}
	for p := int64(1); p <= 1e18; p *= 10 {
		for d := int64(-3); d <= 3; d++ {
			check(p + d)
		}
	}
	for _, ns := range []int64{
		999_999_999, 1e9, 1e9 + 1, 1_234_567_000, 9_999_999_999, 10e9, 123_456_789_012,
		1<<50 - 2, 1<<50 - 1, 1 << 50, 1<<50 + 1, 1<<53 + 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, -1e9,
	} {
		check(ns)
	}
	if got := string(appendUS([]byte("x="), 1500)); got != "x=1.5" {
		t.Fatalf("appendUS must append after existing bytes, got %q", got)
	}
}

func FuzzAppendUS(f *testing.F) {
	for _, ns := range []int64{0, 1, 999, 1000, 1500, 1e9, 1<<50 - 1, 1 << 50, -7, math.MaxInt64} {
		f.Add(ns)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		if got, want := string(appendUS(nil, ns)), usWant(ns); got != want {
			t.Fatalf("appendUS(%d) = %q, want %q", ns, got, want)
		}
	})
}

// FuzzDecodeTrace: DecodeTrace never panics, every document it accepts
// satisfies the validator's per-phase invariants, and Timehist renders any
// accepted document without panicking.
func FuzzDecodeTrace(f *testing.F) {
	_, data := record(f, []CounterTrack{{Name: "runq.core0", Points: [][2]float64{{0, 0}, {1000, 2}}}})
	f.Add(data)
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","name":"a T1","tid":0,"ts":1,"dur":2,"args":{"wait_us":3,"from_wake":true}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			if tr != nil {
				t.Fatal("DecodeTrace returned a trace with an error")
			}
			return
		}
		if tr.Events == nil {
			t.Fatal("accepted a document without traceEvents")
		}
		for i, e := range tr.Events {
			switch e.Ph {
			case "M":
				if e.Name == "" {
					t.Fatalf("event %d: accepted nameless metadata", i)
				}
			case "X":
				if e.Name == "" || e.TsUS < 0 || e.DurUS < 0 {
					t.Fatalf("event %d: accepted bad slice %+v", i, e)
				}
			case "i", "C":
				if e.TsUS < 0 {
					t.Fatalf("event %d: accepted negative ts %+v", i, e)
				}
			default:
				t.Fatalf("event %d: accepted unknown phase %q", i, e.Ph)
			}
		}
		if err := tr.Timehist(io.Discard, 10, 5); err != nil {
			t.Fatalf("Timehist: %v", err)
		}
	})
}
