package dtrace

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzDecode: Decode never panics, and what it allocates is bounded by
// a constant multiple of the input size — a hostile header cannot make
// it reserve memory the stream's bytes do not back.
func FuzzDecode(f *testing.F) {
	small, err := os.ReadFile(filepath.Join("testdata", "small.dtrace"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Fuzz(func(t *testing.T, data []byte) {
		before := totalAlloc()
		Decode(data)
		used := totalAlloc() - before
		if limit := uint64(1024*len(data) + 64<<10); used > limit {
			t.Fatalf("Decode of %d bytes allocated %d bytes (limit %d)", len(data), used, limit)
		}
	})
}

// TestDecodeRejectsOversizedCounts: chunk counts the remaining bytes
// cannot back fail before anything is sized from them.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	hdr := Magic + "\n" + `{"columns":[{"name":"t_ns","type":"i64"},{"name":"cand_len","type":"u16"},{"name":"cand_id","type":"i32"},{"name":"cand_key","type":"i64"}]}` + "\n"
	// Two records of t_ns, then cand_len 65535 twice: 2 MiB of
	// candidates the chunk's zero cand count does not back.
	lens := append(make([]byte, 16), 0xff, 0xff, 0xff, 0xff)
	cases := map[string]string{
		"records":        hdr + `{"records":5000000,"cands":0}` + "\n" + string(make([]byte, 300)),
		"cands":          hdr + `{"records":1,"cands":4611686018427387904}` + "\n" + string(make([]byte, 300)),
		"records wrap":   hdr + `{"records":2305843009213693952,"cands":0}` + "\n",
		"cand_len sum":   hdr + `{"records":2,"cands":0}` + "\n" + string(lens),
		"no row columns": Magic + "\n" + `{"columns":[{"name":"cand_id","type":"i32"}]}` + "\n" + `{"records":5000000,"cands":0}` + "\n",
		"mistyped t_ns":  Magic + "\n" + `{"columns":[{"name":"t_ns","type":"u8"}]}` + "\n" + `{"records":2,"cands":0}` + "\n\x00\x00",
	}
	for name, data := range cases {
		before := totalAlloc()
		if _, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s: Decode accepted a stream its bytes cannot back", name)
		}
		if used := totalAlloc() - before; used > 1<<20 {
			t.Errorf("%s: Decode allocated %d bytes before failing", name, used)
		}
	}
}
