package scenario

import (
	"testing"
)

// FuzzParse: Parse never panics on arbitrary bytes, and every rejection is
// a positioned *Error naming the spec it was handed — the contract the CLI
// relies on to print "file:line:col: msg" for a bad spec file. Seeded with
// every bundled spec, so mutations start from documents that pass.
func FuzzParse(f *testing.F) {
	entries, err := libraryFS.ReadDir("library")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := libraryFS.ReadFile("library/" + e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse("fuzz.json", data)
		if err == nil {
			if sp == nil {
				t.Fatal("Parse returned neither a spec nor an error")
			}
			return
		}
		if sp != nil {
			t.Fatal("Parse returned a spec with an error")
		}
		se, ok := err.(*Error)
		if !ok {
			t.Fatalf("error %T (%v) is not a *scenario.Error", err, err)
		}
		if se.File != "fuzz.json" {
			t.Fatalf("error %q has File %q, want fuzz.json", se, se.File)
		}
	})
}
