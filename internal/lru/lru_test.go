package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetAddPromoteEvict(t *testing.T) {
	c := New[int, string](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Add(1, "a")
	c.Add(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	// 1 is now most recently used; adding 3 must evict 2.
	c.Add(3, "c")
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestReplaceKeepsCapacity(t *testing.T) {
	c := New[string, int](2)
	c.Add("x", 1)
	c.Add("x", 2)
	if c.Len() != 1 {
		t.Fatalf("replace grew cache to %d", c.Len())
	}
	if v, _ := c.Get("x"); v != 2 {
		t.Fatalf("replace kept old value %d", v)
	}
}

func TestStatsAndFlush(t *testing.T) {
	c := New[int, int](4)
	c.Get(7) // miss
	c.Add(7, 7)
	c.Get(7) // hit
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d hits, %d misses", h, m)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("flush left entries")
	}
	if h, m = c.Stats(); h != 1 || m != 1 {
		t.Fatal("flush cleared stats")
	}
}

// TestConcurrent exercises the cache the way the SPMD tasks do: many
// goroutines hammering disjoint and shared keys. Run under -race.
func TestConcurrent(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*i + i) % 16
				if _, ok := c.Get(k); !ok {
					c.Add(k, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) accepted")
		}
	}()
	New[int, int](0)
}

func BenchmarkGetHit(b *testing.B) {
	c := New[string, int](64)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		c.Add(keys[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i%64])
	}
}
