package dtrace

// oracleHeadroom is the straightforward windowed search the production
// analyzer must agree with: every node re-prices every candidate from
// scratch (recorded depth, then a rescan of the earlier in-window actual
// and hypothetical placements), sorts the whole candidate set by (cost,
// core id) and branches over the cheapest `branch`, bounding only on the
// partial cost. It is exponential and slow on purpose — it is the
// specification, kept only for the differential tests and fuzz target.

import "sort"

type oracleDecision struct {
	chosen int32
	cands  []Candidate
}

type oracleAcc struct {
	branch int
	buf    []oracleDecision
	assign []int32
	achOne []int64
}

// oracleHeadroom replays tr's wake records through the reference search
// with an already-normalized window (1..MaxWindow) and branch
// (1..MaxBranch).
func oracleHeadroom(tr *Trace, window, branch int) Headroom {
	o := oracleAcc{branch: branch, assign: make([]int32, window), achOne: make([]int64, window)}
	var wakes int
	var ach, att int64
	flush := func() {
		n := len(o.buf)
		if n == 0 {
			return
		}
		var achieved int64
		for i := range o.buf {
			c := depthOf(o.buf[i].cands, o.buf[i].chosen)
			if c < 0 {
				c = 0
			}
			o.achOne[i] = c
			achieved += c
		}
		best := achieved
		o.search(0, n, 0, &best)
		wakes += n
		ach += achieved
		att += best
		o.buf = o.buf[:0]
	}
	for i := range tr.Recs {
		r := &tr.Recs[i]
		if r.Kind != KindWake {
			continue
		}
		o.buf = append(o.buf, oracleDecision{chosen: r.Core, cands: r.Cand})
		if len(o.buf) == window {
			flush()
		}
	}
	flush()
	h := Headroom{Wakes: wakes, Achieved: ach, Attainable: att}
	if ach > 0 {
		h.Pct = 100 * float64(ach-att) / float64(ach)
	}
	return h
}

// corrected is decision i's modeled cost on core given assign[:i].
func (o *oracleAcc) corrected(i int, core int32) int64 {
	depth := depthOf(o.buf[i].cands, core)
	if depth < 0 {
		depth = 0
	}
	for j := 0; j < i; j++ {
		if o.buf[j].chosen == core {
			depth--
		}
		if o.assign[j] == core {
			depth++
		}
	}
	if depth < 0 {
		depth = 0
	}
	return depth
}

func (o *oracleAcc) search(i, n int, cost int64, best *int64) {
	if cost >= *best {
		return
	}
	if i == n {
		*best = cost
		return
	}
	d := &o.buf[i]
	ranked := make([]Candidate, 0, len(d.cands))
	for _, c := range d.cands {
		ranked = append(ranked, Candidate{ID: c.ID, Key: o.corrected(i, c.ID)})
	}
	sort.Slice(ranked, func(x, y int) bool {
		if ranked[x].Key != ranked[y].Key {
			return ranked[x].Key < ranked[y].Key
		}
		return ranked[x].ID < ranked[y].ID
	})
	if len(ranked) > o.branch {
		ranked = ranked[:o.branch]
	}
	if len(ranked) == 0 {
		o.assign[i] = d.chosen
		o.search(i+1, n, cost+o.achOne[i], best)
		return
	}
	for _, c := range ranked {
		o.assign[i] = c.ID
		o.search(i+1, n, cost+c.Key, best)
	}
}
