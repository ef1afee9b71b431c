package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/sim"
)

// memoTrial builds a trivially cheap cacheable trial: the outcome is the
// machine's final virtual time in ns, and execs counts real executions so
// tests can distinguish simulated cells from deduped/cached ones.
func memoTrial(name string, key memo.Key, seed int64, execs *atomic.Int64) Trial[int64] {
	return Trial[int64]{
		Name:    name,
		Machine: MachineConfig{Cores: 1, Kind: FIFO, Seed: seed},
		Window:  time.Millisecond,
		Extract: func(m *sim.Machine) int64 {
			execs.Add(1)
			return int64(m.Now())
		},
		CacheKey: key,
	}
}

func TestGridDedupIdenticalCells(t *testing.T) {
	key := memo.NewHasher("t").Str("cell").Sum()
	var execs atomic.Int64
	// Three identical cells (same pre-key, same explicit seed → same
	// resolved seed) plus one distinct cell and one uncacheable cell.
	otherKey := memo.NewHasher("t").Str("other").Sum()
	trials := []Trial[int64]{
		memoTrial("dup", key, 7, &execs),
		memoTrial("dup", key, 7, &execs),
		memoTrial("other", otherKey, 8, &execs),
		memoTrial("dup", key, 7, &execs),
		memoTrial("nocache", memo.Key{}, 7, &execs),
	}
	before := DedupedTrials()
	out := RunTrials(trials)
	if got := execs.Load(); got != 3 {
		t.Fatalf("executed %d trials, want 3 (2 deduped)", got)
	}
	if DedupedTrials()-before != 2 {
		t.Fatalf("deduped counter moved by %d, want 2", DedupedTrials()-before)
	}
	if out[0] != out[1] || out[0] != out[3] {
		t.Fatalf("fanned-out results differ: %v", out)
	}
	if out[0] == 0 || out[2] == 0 || out[4] == 0 {
		t.Fatalf("zero outcomes: %v", out)
	}
}

func TestGridDedupRespectsResolvedSeeds(t *testing.T) {
	// Same pre-key, explicit seed 0: the derived path gives same-named
	// cells distinct occurrence seeds, so they must NOT dedupe.
	key := memo.NewHasher("t").Str("derived").Sum()
	var execs atomic.Int64
	trials := []Trial[int64]{
		memoTrial("d", key, 0, &execs),
		memoTrial("d", key, 0, &execs),
	}
	RunTrials(trials)
	if got := execs.Load(); got != 2 {
		t.Fatalf("executed %d trials, want 2 (distinct derived seeds)", got)
	}
}

func TestGridDedupFansOutFailures(t *testing.T) {
	key := memo.NewHasher("t").Str("boom").Sum()
	mk := func(name string) Trial[int64] {
		return Trial[int64]{
			Name:     name,
			Machine:  MachineConfig{Cores: 1, Kind: FIFO, Seed: 3},
			Window:   time.Millisecond,
			Extract:  func(m *sim.Machine) int64 { panic("boom") },
			CacheKey: key,
		}
	}
	_, errs := RunTrialsErr([]Trial[int64]{mk("boom"), mk("boom")})
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want the failure fanned out to both cells", len(errs))
	}
	if errs[0].Index != 0 || errs[1].Index != 1 {
		t.Fatalf("error indices %d,%d, want 0,1", errs[0].Index, errs[1].Index)
	}
	for _, e := range errs {
		if fmt.Sprintf("%v", e.Value) != "boom" {
			t.Fatalf("error value %v, want boom", e.Value)
		}
	}
}

func TestTrialCacheHitSkipsExecution(t *testing.T) {
	c, err := memo.New("")
	if err != nil {
		t.Fatal(err)
	}
	SetTrialCache(c)
	defer SetTrialCache(nil)

	key := memo.NewHasher("t").Str("cached").Sum()
	var execs atomic.Int64
	grid := func() []Trial[int64] {
		return []Trial[int64]{memoTrial("c1", key, 5, &execs)}
	}
	first := RunTrials(grid())
	second := RunTrials(grid())
	if got := execs.Load(); got != 1 {
		t.Fatalf("executed %d times, want 1 (second run must hit)", got)
	}
	if first[0] != second[0] {
		t.Fatalf("cached result %v != fresh result %v", second[0], first[0])
	}
	st := c.Stats()
	if st.Hits != 1 || st.Stores != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 store", st)
	}
}

func TestTrialCacheKeyedByResolvedSeed(t *testing.T) {
	c, err := memo.New("")
	if err != nil {
		t.Fatal(err)
	}
	SetTrialCache(c)
	defer SetTrialCache(nil)

	key := memo.NewHasher("t").Str("seeded").Sum()
	var execs atomic.Int64
	RunTrials([]Trial[int64]{memoTrial("s", key, 11, &execs)})
	RunTrials([]Trial[int64]{memoTrial("s", key, 12, &execs)})
	if got := execs.Load(); got != 2 {
		t.Fatalf("executed %d times, want 2 (different seeds must not collide)", got)
	}
}

func TestTrialCacheDisabledByDefault(t *testing.T) {
	if TrialCache() != nil {
		t.Fatal("trial cache installed by default")
	}
	key := memo.NewHasher("t").Str("nocache-default").Sum()
	var execs atomic.Int64
	RunTrials([]Trial[int64]{memoTrial("n", key, 9, &execs)})
	RunTrials([]Trial[int64]{memoTrial("n", key, 9, &execs)})
	if got := execs.Load(); got != 2 {
		t.Fatalf("executed %d times, want 2 (no cross-grid memoization without a cache)", got)
	}
}

func TestGridDedupByteIdenticalAcrossWorkers(t *testing.T) {
	key := memo.NewHasher("t").Str("width").Sum()
	grid := func(execs *atomic.Int64) []Trial[int64] {
		var trials []Trial[int64]
		for i := 0; i < 4; i++ {
			trials = append(trials, memoTrial("w", key, 21, execs))
			trials = append(trials, memoTrial(fmt.Sprintf("w%d", i), memo.NewHasher("t").Str(fmt.Sprintf("w%d", i)).Sum(), int64(30+i), execs))
		}
		return trials
	}
	var e1, e8 atomic.Int64
	var seq, par []int64
	runner.WithWorkers(1, func() { seq = RunTrials(grid(&e1)) })
	runner.WithWorkers(8, func() { par = RunTrials(grid(&e8)) })
	if e1.Load() != e8.Load() {
		t.Fatalf("execution counts differ across widths: %d vs %d", e1.Load(), e8.Load())
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d differs across widths: %d vs %d", i, seq[i], par[i])
		}
	}
}
