package dtrace

import (
	"math/rand/v2"
	"testing"
)

// randomTrace builds a trace of nWakes wake records (with a few pick
// records mixed in, which the analyzer must skip) over a small core-id
// range, so candidate sets overlap across decisions and repeat ids
// within one. Keys include negative values; some sets are empty and
// some chosen cores are absent from their own set.
func randomTrace(rng *rand.Rand, nWakes, maxCand int) *Trace {
	ids := 1 + rng.IntN(10)
	keyHi := 1 + rng.IntN(40)
	tr := &Trace{}
	for wakes := 0; wakes < nWakes; {
		kind := KindWake
		if rng.IntN(8) == 0 {
			kind = KindPick
		} else {
			wakes++
		}
		cands := make([]Candidate, rng.IntN(maxCand+1))
		for k := range cands {
			cands[k] = Candidate{ID: int32(rng.IntN(ids)), Key: int64(rng.IntN(keyHi+4) - 3)}
		}
		chosen := int32(rng.IntN(ids + 2))
		if len(cands) > 0 && rng.IntN(4) != 0 {
			chosen = cands[rng.IntN(len(cands))].ID
		}
		tr.Recs = append(tr.Recs, Rec{Kind: kind, Core: chosen, Cand: cands})
	}
	return tr
}

// TestHeadroomMatchesOracle: the precomputed, bounded search returns
// exactly the reference search's verdict on random traces at every
// window and branch size.
func TestHeadroomMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	traces := 12
	if testing.Short() {
		traces = 3
	}
	for window := 1; window <= MaxWindow; window++ {
		for branch := 1; branch <= MaxBranch; branch++ {
			// Keep the reference search's branch^window tree tractable.
			maxCand := 8
			if window > 8 {
				maxCand = 3
			}
			for k := 0; k < traces; k++ {
				tr := randomTrace(rng, rng.IntN(3*window+1), maxCand)
				got := ComputeHeadroom(tr, window, branch)
				want := oracleHeadroom(tr, window, branch)
				if got != want {
					t.Fatalf("window %d branch %d trace %d: got %+v, oracle %+v\nrecs %+v", window, branch, k, got, want, tr.Recs)
				}
			}
		}
	}
}

// TestComputeHeadroomClampsBranch: a branch below 1 takes the default,
// as a window below 1 does, instead of panicking.
func TestComputeHeadroomClampsBranch(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewPCG(3, 4)), 40, 6)
	want := ComputeHeadroom(tr, 0, defaultBranch)
	for _, branch := range []int{0, -1, -100} {
		if got := ComputeHeadroom(tr, 0, branch); got != want {
			t.Fatalf("branch %d: got %+v, want the default branch's %+v", branch, got, want)
		}
	}
	if got, want := ComputeHeadroom(tr, -5, 2), ComputeHeadroom(tr, defaultWindow, 2); got != want {
		t.Fatalf("window -5: got %+v, want the default window's %+v", got, want)
	}
	if got, want := ComputeHeadroom(tr, 4, MaxBranch+5), ComputeHeadroom(tr, 4, MaxBranch); got != want {
		t.Fatalf("branch above MaxBranch: got %+v, want %+v", got, want)
	}
}

// TestVisitedComparesWholeStates: two states that share a probe bucket
// stay distinct — the transposition cut compares decision index and
// placement multiset, not the hash — and a state is cut only when
// revisited at no lower cost than its cheapest visit so far.
func TestVisitedComparesWholeStates(t *testing.T) {
	type state struct {
		i int
		p placement
	}
	rng := rand.New(rand.NewPCG(5, 6))
	byHome := map[uint64]state{}
	var sameDepth, samePlacement [2]state
	found := 0
	for found != 3 {
		var p placement
		n := rng.IntN(MaxWindow + 1)
		for k := 0; k < n; k++ {
			p = p.with(int32(rng.IntN(8)))
		}
		for i := n; i <= MaxWindow; i++ {
			s := state{i, p}
			o, ok := byHome[p.home(i)]
			switch {
			case !ok:
				byHome[p.home(i)] = s
			case o.i == s.i && o.p.n == s.p.n && o.p != s.p && found&1 == 0:
				sameDepth = [2]state{o, s}
				found |= 1
			case o.i != s.i && o.p == s.p && found&2 == 0:
				samePlacement = [2]state{o, s}
				found |= 2
			}
		}
	}
	for _, pair := range [][2]state{sameDepth, samePlacement} {
		var v visited
		v.reset(8)
		a, b := pair[0], pair[1]
		if !v.admit(a.i, a.p, 5) || !v.admit(b.i, b.p, 9) {
			t.Fatalf("first visit of %+v or %+v cut", a, b)
		}
		if v.admit(a.i, a.p, 5) || v.admit(b.i, b.p, 10) {
			t.Fatalf("revisit at no lower cost searched again: %+v %+v", a, b)
		}
		if !v.admit(b.i, b.p, 8) || v.admit(b.i, b.p, 8) {
			t.Fatalf("revisit of %+v at a lower cost cut, or its cost not kept", b)
		}
	}
}

// traceFromBytes decodes a fuzz input into a window, a branch and a
// trace: after two parameter bytes, each record is a 2-byte head (kind
// bit and chosen core, candidate count) followed by 2 bytes per
// candidate (core id, signed depth). Ids span 0..15 so sets overlap and
// repeat; depths are small, as runnable depths are.
func traceFromBytes(data []byte) (*Trace, int, int) {
	if len(data) < 2 {
		return &Trace{}, 1, 1
	}
	window := 1 + int(data[0])%MaxWindow
	branch := 1 + int(data[1])%MaxBranch
	data = data[2:]
	// Bound the reference search's tree, as TestHeadroomMatchesOracle does.
	maxCand := 8
	if window > 8 {
		maxCand = 3
	}
	tr := &Trace{}
	for len(data) >= 2 && len(tr.Recs) < 64 {
		head, nc := data[0], int(data[1])%(maxCand+1)
		data = data[2:]
		rec := Rec{Kind: KindWake, Core: int32(head & 0x0f)}
		if head&0x80 != 0 {
			rec.Kind = KindPick
		}
		for ; nc > 0 && len(data) >= 2; nc-- {
			rec.Cand = append(rec.Cand, Candidate{ID: int32(data[0] & 0x0f), Key: int64(int8(data[1]))})
			data = data[2:]
		}
		tr.Recs = append(tr.Recs, rec)
	}
	return tr, window, branch
}

// FuzzComputeHeadroom checks the analyzer against the reference search
// on fuzzed traces; the seed corpus is in testdata/fuzz.
func FuzzComputeHeadroom(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, window, branch := traceFromBytes(data)
		if got, want := ComputeHeadroom(tr, window, branch), oracleHeadroom(tr, window, branch); got != want {
			t.Fatalf("window %d branch %d: got %+v, oracle %+v", window, branch, got, want)
		}
	})
}

// deepQueueStream is a synthetic wake stream in the oversubscribed
// regime: 8 cores at about 32 runnable threads each, every core allowed,
// depths drifting by ±1 per decision.
func deepQueueStream(n int) (chosen []int32, loads [][]int) {
	rng := rand.New(rand.NewPCG(8, 32))
	depth := make([]int, 8)
	for c := range depth {
		depth[c] = 28 + rng.IntN(9)
	}
	for i := 0; i < n; i++ {
		for c := range depth {
			depth[c] = max(depth[c]+rng.IntN(3)-1, 0)
		}
		loads = append(loads, append([]int(nil), depth...))
		chosen = append(chosen, int32(rng.IntN(len(depth))))
	}
	return chosen, loads
}

type allowAll struct{}

func (allowAll) CanRunOn(int) bool { return true }

// BenchmarkHeadroom prices one window (8 wakes, branch 4) of the
// deep-queue stream through the online accumulator.
func BenchmarkHeadroom(b *testing.B) {
	const window, stream = 8, 1024
	chosen, loads := deepQueueStream(stream)
	var acc headroomAcc
	acc.init(window, defaultBranch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < window; k++ {
			j := (i*window + k) % stream
			acc.observe(chosen[j], allowAll{}, loads[j])
		}
	}
	b.StopTimer()
	if h := acc.result(); h.Wakes != b.N*window || h.Attainable > h.Achieved {
		b.Fatalf("implausible headroom %+v after %d windows", h, b.N)
	}
}

// TestHeadroomAllocFree: once warmed, buffering and solving a window
// allocates nothing.
func TestHeadroomAllocFree(t *testing.T) {
	const window = 8
	chosen, loads := deepQueueStream(64)
	var acc headroomAcc
	acc.init(window, defaultBranch)
	next := 0
	feed := func() {
		for k := 0; k < window; k++ {
			acc.observe(chosen[next], allowAll{}, loads[next])
			next = (next + 1) % len(chosen)
		}
	}
	feed() // size the per-window slot tables
	if avg := testing.AllocsPerRun(20, feed); avg != 0 {
		t.Fatalf("headroom window allocated %.1f times, want 0", avg)
	}
}
