package scenario

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sim"
)

// Trial-result memoization: every simulation here is a pure function of its
// inputs, so a sweep cell's TrialReport — out-of-band trace/timeline bytes
// included — can be content-addressed. This file computes the fingerprint;
// internal/memo holds the report itself, in memory, for the life of the
// process.
//
// The fingerprint is built in three stages, because the three input groups
// resolve at different times:
//
//  1. cachePrefix (once per Compile): everything cells share — the workload
//     mix, metric selection, series/trace/timeline/fault blocks and the
//     spec-level window.
//  2. cellFingerprint (per cell): the sweep coordinates — cores, resolved
//     scheduler kind + decoded parameter overrides, effective scale, the
//     cell's seed-axis value — plus the process-wide knobs trial outcomes
//     depend on: the CLI base-seed perturbation (it feeds open-loop arrival
//     streams directly, not just via the resolved machine seed) and the
//     engine selection override.
//  3. core.RunTrialsErr folds in the RESOLVED machine seed (memo.Derive)
//     after occurrence-based seed resolution — same-named cells on the
//     derived-seed path draw distinct seeds, so compile time is too early
//     to finalize the key.
//
// Keys never outlive the binary that computed them, so code and format
// changes need no versioning here: a rebuilt binary starts with an empty
// cache.

// cacheSalt names the trial-report key space.
const cacheSalt = "schedbattle/trial-memo"

// cachePrefix hashes the cell-invariant part of the fingerprint. The sweep
// axes (cores, scales, schedulers, seeds) are deliberately absent — they are
// folded per cell, so identical cells reached through different sweep
// compositions (a scenario run, a battle replication, a -check re-run)
// share one fingerprint. A marshalling failure returns ok=false and the
// spec compiles uncacheable; json.Marshal of validated spec blocks cannot
// realistically fail, but a cache must never turn into an error source.
func (s *Spec) cachePrefix() (memo.Key, bool) {
	h := memo.NewHasher(cacheSalt).
		Str(s.Name).
		Bool(s.Machine.KernelNoise).
		Int(int64(s.Window.D()))
	for _, part := range []any{s.Workload, s.Metrics, s.Series, s.Trace, s.Timeline, s.Faults} {
		b, err := json.Marshal(part)
		if err != nil {
			return memo.Key{}, false
		}
		h.Bytes(b)
	}
	return h.Sum(), true
}

// cellFingerprint folds one sweep cell's coordinates and the process-wide
// outcome-affecting knobs into the spec prefix. seed is the cell's
// seed-axis value, not the resolved machine seed — core folds that in
// after resolution.
func cellFingerprint(prefix memo.Key, cores int, rs resolvedSched, scale float64, seed int64) (memo.Key, bool) {
	uleJSON, err := json.Marshal(rs.ule)
	if err != nil {
		return memo.Key{}, false
	}
	cfsJSON, err := json.Marshal(rs.cfs)
	if err != nil {
		return memo.Key{}, false
	}
	return memo.NewHasher(cacheSalt).
		Key(prefix).
		Int(int64(cores)).
		Str(string(rs.kind)).
		Bytes(uleJSON).
		Bytes(cfsJSON).
		Float(scale).
		Int(seed).
		Int(core.BaseSeed()).
		Bool(sim.ForceEventHeap()).
		Sum(), true
}
