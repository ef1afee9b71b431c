package timeline

// Chrome trace-event / Perfetto JSON export of a recorded timeline, plus
// the decoder/validator its consumers (the -timehist renderer, the golden
// shape test, CI smoke) share. The rendering is a pure function of the
// recorder's deterministic state, so exported files are byte-identical at
// any -jobs width and across event engines.
//
// Mapping (loadable at ui.perfetto.dev):
//   - one process (pid 0) named after the machine, one named thread track
//     per core ("cpu0".."cpuN", sorted by core id);
//   - "X" complete events on a core's track for every running slice, the
//     thread name + id as the event name, args carrying tid, the wait that
//     preceded the slice, and whether it began at a wakeup;
//   - "i" instant events for wakeups (on the target core's track),
//     migrations (destination track, args.from), steals (stealer track,
//     args.victim);
//   - "C" counter events replaying probe series handed in by the caller.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// SchemaName identifies the export in otherData.schema.
const SchemaName = "schedbattle/timeline/v1"

// CounterTrack is one counter series for the export: [t_us, value] points
// in time order (exactly the scenario report's series shape).
type CounterTrack struct {
	Name   string
	Points [][2]float64
}

// AppendPerfetto renders the timeline as trace-event JSON appended to buf.
// counters are emitted only when the "counters" track group is selected;
// pass nil when none apply. Valid after Close.
//
// The render is one pass with a presized buffer: timestamps go through
// appendUS, and each thread's slice-name literal is escaped once and
// reused, so allocations grow with the number of distinct threads, not
// with the number of events.
func (r *Recorder) AppendPerfetto(buf []byte, counters []CounterTrack) []byte {
	emitCounters := r.opts.track(TrackCounters)
	names, size := r.perfettoPlan(counters, emitCounters)
	b := slices.Grow(buf, size)
	b = append(b, `{"displayTimeUnit":"ms","otherData":{"schema":"`+SchemaName+`"},"traceEvents":[`...)
	b = append(b, "\n"+`{"ph":"M","pid":0,"name":"process_name","args":{"name":"schedbattle"}}`...)
	for c := int64(0); c < int64(len(r.m.Cores)); c++ {
		b = append(b, ",\n"+`{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, c, 10)
		b = append(b, `,"name":"thread_name","args":{"name":"cpu`...)
		b = strconv.AppendInt(b, c, 10)
		b = append(b, `"}}`...)
		b = append(b, ",\n"+`{"ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, c, 10)
		b = append(b, `,"name":"thread_sort_index","args":{"sort_index":`...)
		b = strconv.AppendInt(b, c, 10)
		b = append(b, `}}`...)
	}

	ev := &r.ev
	for i, kind := range ev.kind {
		tid := ev.tid[i]
		switch kind {
		case evSlice:
			b = append(b, ",\n"+`{"ph":"X","pid":0,"tid":`...)
			b = strconv.AppendInt(b, int64(ev.core[i]), 10)
			b = append(b, `,"ts":`...)
			b = appendUS(b, ev.t[i])
			b = append(b, `,"dur":`...)
			b = appendUS(b, ev.dur[i])
			b = append(b, `,"name":`...)
			b = append(b, names[tid]...)
			b = append(b, `,"args":{"tid":`...)
			b = strconv.AppendInt(b, int64(tid), 10)
			b = append(b, `,"wait_us":`...)
			b = appendUS(b, ev.wait[i])
			if ev.flag[i] != 0 {
				b = append(b, `,"from_wake":true}}`...)
			} else {
				b = append(b, `,"from_wake":false}}`...)
			}
		case evWake, evMigrate, evSteal:
			b = append(b, ",\n"+`{"ph":"i","s":"t","pid":0,"tid":`...)
			b = strconv.AppendInt(b, int64(ev.core[i]), 10)
			b = append(b, `,"ts":`...)
			b = appendUS(b, ev.t[i])
			lit := &instantLits[kind]
			b = append(b, lit.name...)
			b = strconv.AppendInt(b, int64(tid), 10)
			b = append(b, lit.other...)
			b = strconv.AppendInt(b, int64(ev.other[i]), 10)
			b = append(b, `}}`...)
		}
	}

	if emitCounters {
		for _, ct := range counters {
			for _, p := range ct.Points {
				b = append(b, ",\n"+`{"ph":"C","pid":0,"ts":`...)
				b = strconv.AppendFloat(b, p[0], 'g', -1, 64)
				b = append(b, `,"name":`...)
				b = appendJSONString(b, ct.Name)
				b = append(b, `,"args":{"value":`...)
				b = strconv.AppendFloat(b, p[1], 'g', -1, 64)
				b = append(b, `}}`...)
			}
		}
	}
	return append(b, "\n]}\n"...)
}

// instantLits holds each instant kind's name-and-args prefix and the key
// of its second core (wake origin, migration source, steal victim).
var instantLits = [...]struct{ name, other string }{
	evWake:    {`,"name":"wake","args":{"tid":`, `,"origin":`},
	evMigrate: {`,"name":"migrate","args":{"tid":`, `,"from":`},
	evSteal:   {`,"name":"steal","args":{"tid":`, `,"victim":`},
}

// Render-size estimate, in bytes: the envelope, two metadata events per
// core, and per event the literal text plus typical number widths (the
// timestamp width is taken from the closing time). It only presizes the
// output; the render appends past it if it falls short.
const (
	estEnvelopeBytes = 128
	estCoreBytes     = 160
	estSliceBytes    = 108 // excluding the name literal and ts
	estInstantBytes  = 88  // excluding ts
	estCounterBytes  = 64  // excluding the counter name
)

// perfettoPlan builds the slice-name literals — names[tid] is
// sliceName(tid), built once for each tid that has a slice — and
// estimates the render's size. Slice tids are recorded thread IDs, so
// they index r.st.
func (r *Recorder) perfettoPlan(counters []CounterTrack, emitCounters bool) (names [][]byte, size int) {
	names = make([][]byte, len(r.st)+1)
	tsBytes := len(strconv.AppendInt(make([]byte, 0, 20), r.closedNS, 10)) + 1
	if r.closedNS >= 1e9 {
		tsBytes += len("e+06")
	}
	size = estEnvelopeBytes + estCoreBytes*len(r.m.Cores)
	for i, kind := range r.ev.kind {
		if kind != evSlice {
			size += estInstantBytes + tsBytes
			continue
		}
		size += estSliceBytes + tsBytes
		tid := r.ev.tid[i]
		if names[tid] == nil {
			names[tid] = r.sliceName(tid)
		}
		size += len(names[tid])
	}
	if emitCounters {
		for _, ct := range counters {
			size += len(ct.Points) * (estCounterBytes + len(ct.Name))
		}
	}
	return names, size
}

// sliceName returns tid's slice-event name, the JSON string
// "<thread name> T<tid>".
func (r *Recorder) sliceName(tid int32) []byte {
	name := r.st[tid-1].th.Name
	b := make([]byte, 0, len(name)+16)
	b = appendJSONString(b, name)
	b = append(b[:len(b)-1], ' ', 'T')
	b = strconv.AppendInt(b, int64(tid), 10)
	return append(b, '"')
}

// appendUS appends ns/1e3 (nanoseconds as microseconds) exactly as
// strconv.AppendFloat(b, float64(ns)/1e3, 'g', -1, 64) would. For
// 0 < ns < 2^50 float64(ns) is exact, the division rounds correctly, and
// half an ulp of the quotient stays below 0.001, so the shortest decimal
// that round-trips is ns's own digits with the point three places from
// the right and trailing zeros trimmed. Go's shortest 'g' switches to
// e-notation once the decimal exponent reaches 6 (ns >= 1e9). Zero (the
// wait before a resumed slice) renders as "0"; negative values and values
// from 2^50 up take the strconv path.
func appendUS(b []byte, ns int64) []byte {
	if ns == 0 {
		return append(b, '0')
	}
	if ns < 0 || ns >= 1<<50 {
		return strconv.AppendFloat(b, float64(ns)/1e3, 'g', -1, 64)
	}
	var buf [16]byte // 2^50 has 16 digits
	i := len(buf)
	for v := ns; v > 0; v /= 10 {
		i--
		buf[i] = byte('0' + v%10)
	}
	// point: digits before the decimal point (may be <= 0).
	point := len(buf) - i - 3
	end := len(buf)
	for buf[end-1] == '0' {
		end--
	}
	digits := buf[i:end]
	if exp := point - 1; exp >= 6 {
		b = append(b, digits[0])
		if len(digits) > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		b = append(b, 'e', '+')
		if exp < 10 {
			b = append(b, '0')
		}
		return strconv.AppendInt(b, int64(exp), 10)
	}
	switch {
	case point <= 0:
		b = append(b, '0', '.')
		for ; point < 0; point++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case len(digits) <= point:
		b = append(b, digits...)
		for k := len(digits); k < point; k++ {
			b = append(b, '0')
		}
		return b
	default:
		b = append(b, digits[:point]...)
		b = append(b, '.')
		return append(b, digits[point:]...)
	}
}

// appendJSONString appends s as a JSON string literal. ASCII control
// characters, quotes, and backslashes are escaped; everything else passes
// through byte-for-byte (names are UTF-8 already).
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// TraceEvent is one decoded trace event.
type TraceEvent struct {
	Ph    string         `json:"ph"`
	Name  string         `json:"name"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Trace is a decoded trace-event document.
type Trace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Schema string `json:"schema"`
	} `json:"otherData"`
	Events []TraceEvent `json:"traceEvents"`
}

// DecodeTrace parses and shape-checks a trace-event JSON document: the
// envelope must carry traceEvents, and every event must have a known phase
// with sane timestamps — the contract ui.perfetto.dev's legacy JSON
// importer needs. This is the validator CI's timeline smoke and the golden
// test run exports through.
func DecodeTrace(data []byte) (*Trace, error) {
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("timeline: decoding trace JSON: %w", err)
	}
	if tr.Events == nil {
		return nil, fmt.Errorf("timeline: trace has no traceEvents array")
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Ph {
		case "M":
			if e.Name == "" {
				return nil, fmt.Errorf("timeline: event %d: metadata event without a name", i)
			}
		case "X":
			if e.Name == "" {
				return nil, fmt.Errorf("timeline: event %d: complete event without a name", i)
			}
			if e.TsUS < 0 || e.DurUS < 0 {
				return nil, fmt.Errorf("timeline: event %d: negative ts/dur", i)
			}
		case "i", "C":
			if e.TsUS < 0 {
				return nil, fmt.Errorf("timeline: event %d: negative ts", i)
			}
		default:
			return nil, fmt.Errorf("timeline: event %d: unknown phase %q", i, e.Ph)
		}
	}
	return &tr, nil
}
