package timeline

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// benchMachine builds the standard overhead fixture: topo.Small(), FIFO,
// 12 run/sleep threads, warmed 250ms so steady state is reached before
// measurement (same shape as dtrace's benchTrace).
func benchMachine(attach bool) (*sim.Machine, *Recorder) {
	m := sim.NewMachine(topo.Small(), sim.NewFIFO(), sim.Options{Seed: 9})
	var r *Recorder
	if attach {
		var err error
		if r, err = Attach(m, Options{}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 12; i++ {
		m.StartThread("w", "app", 0, &runSleeper{run: 700 * time.Microsecond, sleep: 400 * time.Microsecond})
	}
	m.Run(250 * time.Millisecond)
	return m, r
}

// BenchmarkTimelineOverhead measures the engine with and without a
// timeline recorder attached; the off/on delta is the flight recorder's
// cost and feeds the pr9 BENCH_engine.json entry.
func BenchmarkTimelineOverhead(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			m, _ := benchMachine(mode == "on")
			start := m.EventsProcessed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(m.Now() + 5*time.Millisecond)
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(m.EventsProcessed()-start)/float64(b.N), "events/op")
			}
		})
	}
}

// TestZeroTimelineAllocFree is the CI alloc gate: with no recorder
// attached the hook fast path must not allocate at all.
func TestZeroTimelineAllocFree(t *testing.T) {
	m, _ := benchMachine(false)
	allocs := testing.AllocsPerRun(20, func() {
		m.Run(m.Now() + 5*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("zero-timeline run allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestAppendPerfettoAllocBound: a render allocates the output buffer, the
// name table, and one literal per distinct thread — never per event — so
// its allocation count must not grow with the recorded window.
func TestAppendPerfettoAllocBound(t *testing.T) {
	var prev float64
	for _, window := range []time.Duration{20 * time.Millisecond, 200 * time.Millisecond} {
		m, r := benchMachine(true)
		m.Run(m.Now() + window)
		r.Close()
		allocs := testing.AllocsPerRun(20, func() { r.AppendPerfetto(nil, nil) })
		if limit := float64(len(r.st) + 4); allocs > limit {
			t.Fatalf("window %v: %d events rendered with %.0f allocs, want <= %.0f (distinct tids + 4)",
				window, len(r.ev.kind), allocs, limit)
		}
		if prev != 0 && allocs != prev {
			t.Fatalf("window %v: %.0f allocs, %.0f at the shorter window; the count must not grow with events",
				window, allocs, prev)
		}
		prev = allocs
	}
}
