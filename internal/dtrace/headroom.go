package dtrace

// The oracle headroom analyzer: how much of the wakeup queueing a
// scheduler inflicted could a clairvoyant placer have avoided?
//
// Model. Each wake record carries the placement alternatives the
// scheduler had — the cores the thread was allowed on, each with its
// runnable depth at decision time — and the core actually chosen. The
// modeled cost of placing a wake on core c is c's corrected depth: the
// recorded depth, minus earlier in-window actual placements on c (they
// are part of the recorded depth but would not exist under the
// alternative), plus earlier in-window hypothetical placements (they
// would). Costs are summed per window; "achieved" is the schedule the
// scheduler produced, "attainable" the exhaustive minimum over
// alternative assignments.
//
// Search bounds. Windows are Options.Window consecutive wake decisions
// (≤ MaxWindow); within a window the search branches over the
// Options.Branch cheapest candidates per decision (≤ MaxBranch, ties cut
// by core id), depth-first, worst case branch^window nodes per window —
// at the defaults (8, 4), 65536. The restriction to per-decision
// cheapest candidates makes the result a lower bound on the true
// oracle's improvement: headroom_pct is conservative.
//
// Search cost. Everything about a candidate's corrected depth except the
// earlier hypothetical placements is fixed for the window, so it is
// precomputed once per window: pre = max(0, recorded depth) − earlier
// actual placements on the core, plus a dense window-local slot per
// core. A node then prices a candidate as max(0, pre + hyp[slot]), where
// hyp counts the hypothetical placements on the current search path,
// and keeps the cheapest `branch` by insertion into a fixed array: O(
// candidates + branch) per node. Two cuts keep the tree small, and
// neither can cut a strictly cheaper leaf, so the result is the same as
// the plain partial-cost search's:
//   - bound: a node's partial cost plus an admissible suffix bound — Σ
//     over the remaining decisions of their cheapest max(0, pre), which
//     hypothetical placements can only raise — already reaches the best
//     schedule found;
//   - transposition: a node's subtree depends only on its decision index
//     and the multiset of hypothetical placements above it, so a node
//     whose state was already searched from no higher a partial cost is
//     cut (most nodes of a deep-queue window are such reorderings).
//
// headroom_pct = 100 × (achieved − attainable) / achieved. 0 means the
// scheduler's placements were queue-optimal under this model; larger
// values mean a better placer had that fraction of modeled queueing to
// reclaim. Everything is integer arithmetic over the recorded trace, so
// the result is deterministic and identical whether computed online by
// the Recorder or offline from a decoded trace (ComputeHeadroom).

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Headroom is the analyzer's verdict over a run's wake decisions.
type Headroom struct {
	// Wakes counts the wake decisions analyzed.
	Wakes int `json:"wakes"`
	// Achieved is the summed modeled queue depth of the scheduler's
	// actual placements.
	Achieved int64 `json:"achieved"`
	// Attainable is the summed depth of the best placements the
	// windowed exhaustive search found.
	Attainable int64 `json:"attainable"`
	// Pct is 100 × (Achieved − Attainable) / Achieved, 0 when no
	// queueing was observed.
	Pct float64 `json:"pct"`
}

// wakeDecision is one buffered wake: the chosen core and the allowed
// cores with their recorded depths, plus the per-window precompute
// parallel to cands.
type wakeDecision struct {
	chosen int32
	cands  []Candidate
	pre    []int64 // assignment-independent cost base per candidate
	slot   []int32 // window-local slot of each candidate's core
}

// headroomAcc accumulates windows online. All storage is preallocated
// or grows to the largest window seen, so a warmed accumulator
// allocates nothing.
type headroomAcc struct {
	window int
	branch int
	buf    []wakeDecision
	n      int

	// Per-window scratch.
	achOne []int64         // per-decision achieved cost
	lb     []int64         // lb[i]: lower bound on the cost of decisions i..n-1
	slotOf map[int32]int32 // core id → window-local slot
	hyp    []int64         // per slot: hypothetical placements on the search path
	first  []int64         // per slot: recorded depth at decision seen[slot]
	seen   []int32         // per slot: last decision that priced the core
	actual []int64         // per slot: actual placements before the decision
	states visited

	wakes   int
	ach     int64
	att     int64
	settled bool
}

func (a *headroomAcc) init(window, branch int) {
	a.window = window
	a.branch = branch
	a.buf = make([]wakeDecision, window)
	for i := range a.buf {
		a.buf[i].cands = make([]Candidate, 0, maxCandPerRec)
		a.buf[i].pre = make([]int64, 0, maxCandPerRec)
		a.buf[i].slot = make([]int32, 0, maxCandPerRec)
	}
	a.achOne = make([]int64, window)
	a.lb = make([]int64, window+1)
	a.slotOf = make(map[int32]int32, maxCandPerRec)
}

// observe buffers one wake decision; loads is the per-core runnable
// depth vector at decision time (indexed by core id). Only cores the
// thread may run on become candidates.
func (a *headroomAcc) observe(chosen int32, t canRunner, loads []int) {
	d := &a.buf[a.n]
	d.chosen = chosen
	d.cands = d.cands[:0]
	for id, load := range loads {
		if !t.CanRunOn(id) || len(d.cands) == maxCandPerRec {
			continue
		}
		d.cands = append(d.cands, Candidate{ID: int32(id), Key: int64(load)})
	}
	a.n++
	if a.n == a.window {
		a.solveWindow()
	}
}

// observeCands is observe for replay from a decoded trace, where the
// allowed-core set and depths come straight from the record.
func (a *headroomAcc) observeCands(chosen int32, cands []Candidate) {
	d := &a.buf[a.n]
	d.chosen = chosen
	d.cands = append(d.cands[:0], cands...)
	a.n++
	if a.n == a.window {
		a.solveWindow()
	}
}

// canRunner is the slice of sim.Thread the accumulator needs.
type canRunner interface{ CanRunOn(id int) bool }

// depthOf finds a core's recorded depth in a candidate set (-1: absent).
func depthOf(cands []Candidate, core int32) int64 {
	for _, c := range cands {
		if c.ID == core {
			return c.Key
		}
	}
	return -1
}

// solveWindow scores the buffered window and resets it.
func (a *headroomAcc) solveWindow() {
	n := a.n
	a.n = 0
	if n == 0 {
		return
	}
	// Achieved: the actual schedule's cost. The prior-placement
	// corrections cancel for the actual assignment, so it is simply the
	// recorded depth of each chosen core.
	var achieved int64
	for i := 0; i < n; i++ {
		d := &a.buf[i]
		a.achOne[i] = max(depthOf(d.cands, d.chosen), 0)
		achieved += a.achOne[i]
	}
	a.prepare(n)
	best := achieved // the actual schedule is always attainable
	a.search(0, n, 0, placement{}, &best)
	a.wakes += n
	a.ach += achieved
	a.att += best
}

// prepare fills the window's per-candidate pre/slot columns and the
// suffix lower bound lb.
//
// The corrected cost of candidate core c at decision i is
//
//	max(0, max(0, depth_i(c)) − actual_i(c) + hyp_i(c))
//
// where depth_i is the first recorded depth for c in decision i's set,
// actual_i(c) counts earlier decisions that chose c, and hyp_i(c)
// counts earlier hypothetical placements on c. A decision without
// candidates keeps its actual placement in every schedule, so its
// actual and hypothetical placements cancel: it counts in neither.
func (a *headroomAcc) prepare(n int) {
	clear(a.slotOf)
	a.first = a.first[:0]
	a.seen = a.seen[:0]
	a.actual = a.actual[:0]
	a.hyp = a.hyp[:0]
	for i := 0; i < n; i++ {
		d := &a.buf[i]
		d.slot = d.slot[:0]
		for _, c := range d.cands {
			s, ok := a.slotOf[c.ID]
			if !ok {
				s = int32(len(a.hyp))
				a.slotOf[c.ID] = s
				a.first = append(a.first, 0)
				a.seen = append(a.seen, -1)
				a.actual = append(a.actual, 0)
				a.hyp = append(a.hyp, 0)
			}
			d.slot = append(d.slot, s)
		}
	}
	for i := 0; i < n; i++ {
		d := &a.buf[i]
		d.pre = d.pre[:0]
		if len(d.cands) == 0 {
			a.lb[i] = a.achOne[i]
			continue
		}
		cheapest := int64(math.MaxInt64)
		for k, c := range d.cands {
			s := d.slot[k]
			if a.seen[s] != int32(i) { // first match wins, as in depthOf
				a.seen[s] = int32(i)
				a.first[s] = max(c.Key, 0)
			}
			p := a.first[s] - a.actual[s]
			d.pre = append(d.pre, p)
			cheapest = min(cheapest, max(p, 0))
		}
		a.lb[i] = cheapest
		if s, ok := a.slotOf[d.chosen]; ok {
			a.actual[s]++
		}
	}
	a.lb[n] = 0
	for i := n - 1; i >= 0; i-- {
		a.lb[i] += a.lb[i+1]
	}
	a.states.reset(len(a.hyp))
}

// ranked is one candidate priced at a search node.
type ranked struct {
	cost int64
	id   int32
	slot int32
}

// less is the branch cut's total order: cost, then core id.
func (r ranked) less(o ranked) bool {
	return r.cost < o.cost || (r.cost == o.cost && r.id < o.id)
}

// search branches decision i over its cheapest candidates; placed is
// the multiset of hypothetical placements above it.
func (a *headroomAcc) search(i, n int, cost int64, placed placement, best *int64) {
	if cost+a.lb[i] >= *best {
		return
	}
	if i == n {
		*best = cost
		return
	}
	if !a.states.admit(i, placed, cost) {
		return
	}
	d := &a.buf[i]
	if len(d.cands) == 0 {
		// No recorded alternatives (candidate column truncated): charge
		// the achieved cost and move on.
		a.search(i+1, n, cost+a.achOne[i], placed, best)
		return
	}
	// Keep the cheapest width candidates, ascending, by insertion.
	width := min(a.branch, len(d.cands))
	var top [MaxBranch]ranked
	m := 0
	for k, c := range d.cands {
		s := d.slot[k]
		r := ranked{cost: max(d.pre[k]+a.hyp[s], 0), id: c.ID, slot: s}
		if m == width {
			if !r.less(top[m-1]) {
				continue
			}
			m--
		}
		p := m
		for p > 0 && r.less(top[p-1]) {
			top[p] = top[p-1]
			p--
		}
		top[p] = r
		m++
	}
	for k, r := range top[:width] {
		if k > 0 && r.id == top[k-1].id {
			continue // a duplicate entry for the same core: same subtree
		}
		if cost+r.cost+a.lb[i+1] >= *best {
			break // siblings are no cheaper
		}
		a.hyp[r.slot]++
		a.search(i+1, n, cost+r.cost, placed.with(r.slot), best)
		a.hyp[r.slot]--
	}
}

// placement is a sorted multiset of slots, one per hypothetical
// placement on the search path; with the decision index it is the whole
// state a subtree depends on. Slots above 255 do not fit, and a window
// with that many distinct cores searches without the transposition cut.
type placement struct {
	slots [MaxWindow]uint8
	n     uint8
}

// with returns p plus one placement on slot s.
func (p placement) with(s int32) placement {
	k := int(p.n)
	for k > 0 && p.slots[k-1] > uint8(s) {
		p.slots[k] = p.slots[k-1]
		k--
	}
	p.slots[k] = uint8(s)
	p.n++
	return p
}

// home is state (i, p)'s first probe in the visited table.
func (p placement) home(i int) uint64 {
	lo := binary.LittleEndian.Uint64(p.slots[:8])
	hi := binary.LittleEndian.Uint64(p.slots[8:])
	return (lo ^ bits.RotateLeft64(hi, 31) ^ uint64(i)*0xBF58476D1CE4E5B9) * 0x9E3779B97F4A7C15 >> (64 - visitedBits)
}

// visitedBits sizes the transposition table: 4096 states, far more than
// a default window visits.
const visitedBits = 12

// visited records the search states of the current window with the
// cheapest partial cost each was reached at. Revisiting a state at no
// lower cost cannot lead to a cheaper leaf: the first visit's subtree
// has already been searched (or bounded) against a best that has only
// fallen since. States are compared whole, so a hash collision never
// cuts; once the table is half full, new states are not recorded.
type visited struct {
	on   bool
	gen  uint32
	used int
	tab  []visit
}

type visit struct {
	placed placement
	depth  uint8
	gen    uint32
	cost   int64
}

// reset starts a window over nslots distinct cores.
func (v *visited) reset(nslots int) {
	if v.tab == nil {
		v.tab = make([]visit, 1<<visitedBits)
	}
	v.gen++
	if v.gen == 0 { // wrapped: entries from 2^32 windows ago would alias
		clear(v.tab)
		v.gen = 1
	}
	v.used = 0
	v.on = nslots <= 256
}

// admit records state (i, placed) at cost and reports whether the node
// must be searched.
func (v *visited) admit(i int, placed placement, cost int64) bool {
	if !v.on {
		return true
	}
	for k := placed.home(i); ; k = (k + 1) & (1<<visitedBits - 1) {
		e := &v.tab[k]
		if e.gen != v.gen {
			if v.used < len(v.tab)/2 {
				*e = visit{placed: placed, depth: uint8(i), gen: v.gen, cost: cost}
				v.used++
			}
			return true
		}
		if e.depth == uint8(i) && e.placed == placed {
			if e.cost <= cost {
				return false
			}
			e.cost = cost
			return true
		}
	}
}

// finish scores a final partial window.
func (a *headroomAcc) finish() {
	if a.settled {
		return
	}
	a.settled = true
	a.solveWindow()
}

// result renders the accumulated verdict.
func (a *headroomAcc) result() Headroom {
	h := Headroom{Wakes: a.wakes, Achieved: a.ach, Attainable: a.att}
	if a.ach > 0 {
		h.Pct = 100 * float64(a.ach-a.att) / float64(a.ach)
	}
	return h
}

// ComputeHeadroom replays the analyzer over a decoded trace's wake
// records. With the cand column group recorded and no dropped chunks it
// reproduces the online Recorder.Headroom exactly; without candidates it
// sees no alternatives and reports zero headroom. A window of 0 takes
// the trace header's window; a window or branch out of range (below 1,
// or a window above MaxWindow) takes the default, and a branch above
// MaxBranch is cut to MaxBranch.
func ComputeHeadroom(tr *Trace, window, branch int) Headroom {
	if window == 0 {
		window = tr.Header.Window
	}
	if window < 1 || window > MaxWindow {
		window = defaultWindow
	}
	if branch < 1 {
		branch = defaultBranch
	}
	if branch > MaxBranch {
		branch = MaxBranch
	}
	var acc headroomAcc
	acc.init(window, branch)
	for i := range tr.Recs {
		r := &tr.Recs[i]
		if r.Kind != KindWake {
			continue
		}
		acc.observeCands(r.Core, r.Cand)
	}
	acc.finish()
	return acc.result()
}
