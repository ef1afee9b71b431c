package timeline

// The test oracle for AppendPerfetto: the renderer as it was before the
// single-pass rewrite (float timestamps through strconv, one fmt.Sprintf
// per slice name, a buffer grown from nil). TestPerfettoMatchesOracle
// compares the two byte for byte.

import (
	"fmt"
	"strconv"
)

// appendPerfettoOracle is the original AppendPerfetto renderer, kept
// verbatim as the byte-identity oracle for the single-pass rewrite.
func (r *Recorder) appendPerfettoOracle(buf []byte, counters []CounterTrack) []byte {
	b := buf
	b = append(b, `{"displayTimeUnit":"ms","otherData":{"schema":"`+SchemaName+`"},"traceEvents":[`...)
	first := true
	sep := func() {
		if !first {
			b = append(b, ',', '\n')
		} else {
			b = append(b, '\n')
		}
		first = false
	}

	sep()
	b = append(b, `{"ph":"M","pid":0,"name":"process_name","args":{"name":"schedbattle"}}`...)
	nCores := len(r.m.Cores)
	for c := 0; c < nCores; c++ {
		sep()
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `,"name":"thread_name","args":{"name":"cpu`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `"}}`...)
		sep()
		b = append(b, `{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `,"name":"thread_sort_index","args":{"sort_index":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, `}}`...)
	}

	us := func(ns int64) []byte {
		return strconv.AppendFloat(nil, float64(ns)/1e3, 'g', -1, 64)
	}
	for i := range r.ev.kind {
		sep()
		tid := r.ev.tid[i]
		name := ""
		if tid >= 1 && int(tid) <= len(r.st) && r.st[tid-1].th != nil {
			name = r.st[tid-1].th.Name
		}
		switch r.ev.kind[i] {
		case evSlice:
			b = append(b, `{"ph":"X","pid":0,"tid":`...)
			b = strconv.AppendInt(b, int64(r.ev.core[i]), 10)
			b = append(b, `,"ts":`...)
			b = append(b, us(r.ev.t[i])...)
			b = append(b, `,"dur":`...)
			b = append(b, us(r.ev.dur[i])...)
			b = append(b, `,"name":`...)
			b = appendJSONStringOracle(b, fmt.Sprintf("%s T%d", name, tid))
			b = append(b, `,"args":{"tid":`...)
			b = strconv.AppendInt(b, int64(tid), 10)
			b = append(b, `,"wait_us":`...)
			b = append(b, us(r.ev.wait[i])...)
			b = append(b, `,"from_wake":`...)
			b = strconv.AppendBool(b, r.ev.flag[i] != 0)
			b = append(b, `}}`...)
		case evWake, evMigrate, evSteal:
			kind, otherKey := "wake", "origin"
			switch r.ev.kind[i] {
			case evMigrate:
				kind, otherKey = "migrate", "from"
			case evSteal:
				kind, otherKey = "steal", "victim"
			}
			b = append(b, `{"ph":"i","s":"t","pid":0,"tid":`...)
			b = strconv.AppendInt(b, int64(r.ev.core[i]), 10)
			b = append(b, `,"ts":`...)
			b = append(b, us(r.ev.t[i])...)
			b = append(b, `,"name":"`...)
			b = append(b, kind...)
			b = append(b, `","args":{"tid":`...)
			b = strconv.AppendInt(b, int64(tid), 10)
			b = append(b, `,"`...)
			b = append(b, otherKey...)
			b = append(b, `":`...)
			b = strconv.AppendInt(b, int64(r.ev.other[i]), 10)
			b = append(b, `}}`...)
		}
	}

	if r.opts.track(TrackCounters) {
		g := func(v float64) []byte { return strconv.AppendFloat(nil, v, 'g', -1, 64) }
		for _, ct := range counters {
			for _, p := range ct.Points {
				sep()
				b = append(b, `{"ph":"C","pid":0,"ts":`...)
				b = append(b, g(p[0])...)
				b = append(b, `,"name":`...)
				b = appendJSONStringOracle(b, ct.Name)
				b = append(b, `,"args":{"value":`...)
				b = append(b, g(p[1])...)
				b = append(b, `}}`...)
			}
		}
	}
	b = append(b, "\n]}\n"...)
	return b
}

// appendJSONStringOracle is the original appendJSONString, the oracle's
// escaper. It appends s as a JSON string literal. ASCII control
// characters, quotes, and backslashes are escaped; everything else passes
// through byte-for-byte (names are UTF-8 already).
func appendJSONStringOracle(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, fmt.Sprintf(`\u%04x`, c)...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
