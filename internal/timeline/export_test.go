package timeline

// AppendPerfettoOracle exposes the unexported renderer oracle to the
// external test package, which can import scenario without a cycle.
func AppendPerfettoOracle(r *Recorder, buf []byte, counters []CounterTrack) []byte {
	return r.appendPerfettoOracle(buf, counters)
}
