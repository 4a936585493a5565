package names

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternDedup(t *testing.T) {
	a := NewArena()
	id1 := a.Intern("f1")
	id2 := a.Intern("f2")
	if id1 == id2 {
		t.Fatalf("distinct names share id %d", id1)
	}
	if got := a.Intern("f1"); got != id1 {
		t.Fatalf("re-intern f1: got %d want %d", got, id1)
	}
	if a.Count() != 2 {
		t.Fatalf("count = %d, want 2", a.Count())
	}
	if a.Name(id1) != "f1" || a.Name(id2) != "f2" {
		t.Fatalf("names: %q %q", a.Name(id1), a.Name(id2))
	}
}

func TestDenseIDs(t *testing.T) {
	a := NewArena()
	for i := 0; i < 1000; i++ {
		if id := a.Intern(fmt.Sprintf("file-%04d", i)); id != uint32(i) {
			t.Fatalf("id for #%d = %d, want dense", i, id)
		}
	}
	for i := 0; i < 1000; i++ {
		want := fmt.Sprintf("file-%04d", i)
		id, ok := a.Lookup(want)
		if !ok || id != uint32(i) {
			t.Fatalf("lookup %q: id=%d ok=%v", want, id, ok)
		}
		if a.Name(id) != want {
			t.Fatalf("name(%d) = %q, want %q", id, a.Name(id), want)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	a := NewArena()
	a.Intern("present")
	if _, ok := a.Lookup("absent"); ok {
		t.Fatal("lookup of absent name succeeded")
	}
}

func TestEmptyName(t *testing.T) {
	a := NewArena()
	id := a.Intern("")
	if a.Name(id) != "" {
		t.Fatalf("empty name round-trip: %q", a.Name(id))
	}
	if got := a.Intern(""); got != id {
		t.Fatalf("re-intern empty: %d != %d", got, id)
	}
}

func TestLongName(t *testing.T) {
	a := NewArena()
	long := string(make([]byte, chunkSize+100))
	id := a.Intern(long)
	if a.Name(id) != long {
		t.Fatal("oversized name did not round-trip")
	}
}

func TestConcurrentIntern(t *testing.T) {
	a := NewArena()
	const workers = 8
	var wg sync.WaitGroup
	ids := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]uint32, 500)
			for i := 0; i < 500; i++ {
				ids[w][i] = a.Intern(fmt.Sprintf("file-%03d", i))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range ids[w] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d id[%d]=%d, worker 0 got %d", w, i, ids[w][i], ids[0][i])
			}
		}
	}
	if a.Count() != 500 {
		t.Fatalf("count = %d, want 500", a.Count())
	}
}

func TestLookupZeroAllocs(t *testing.T) {
	a := NewArena()
	for i := 0; i < 100; i++ {
		a.Intern(fmt.Sprintf("file-%03d", i))
	}
	name := "file-042"
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := a.Lookup(name); !ok {
			t.Fatal("miss")
		}
		a.Name(42)
		a.Intern(name) // steady-state re-intern is a read-locked lookup
	})
	if allocs != 0 {
		t.Fatalf("lookup path allocates %.1f/op, want 0", allocs)
	}
}
