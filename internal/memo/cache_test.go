package memo

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testKey(s string) Key { return NewHasher("test").Str(s).Sum() }

func TestMemoryCacheRoundTrip(t *testing.T) {
	c, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("a")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "payload", 3*time.Second)
	v, ok := c.Get(k)
	if !ok || v != "payload" {
		t.Fatalf("got (%v, %v), want (payload, true)", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 store", st)
	}
	if st.WallSaved != 3*time.Second {
		t.Fatalf("WallSaved = %v, want 3s", st.WallSaved)
	}
}

func TestNewRejectsDir(t *testing.T) {
	if c, err := New("some/dir"); err == nil || c != nil {
		t.Fatalf("New(dir) = (%v, %v), want an error: results are never persisted", c, err)
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Hammer one shared cache from many goroutines over a small key space:
	// the race detector validates the locking, and every Get must return
	// either a miss or the exact stored payload.
	c, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys, rounds = 8, 5, 50
	payload := func(ki int) []byte { return bytes.Repeat([]byte{byte(ki)}, 64) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ki := (w + r) % keys
				k := testKey(fmt.Sprintf("k%d", ki))
				if v, ok := c.Get(k); ok {
					if !bytes.Equal(v.([]byte), payload(ki)) {
						t.Errorf("key %d returned wrong payload", ki)
						return
					}
				} else {
					c.Put(k, payload(ki), time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Stores == 0 || st.Hits == 0 {
		t.Fatalf("expected both stores and hits, got %+v", st)
	}
}
