package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"s4dcache/internal/cdt"
	"s4dcache/internal/dmt"
	"s4dcache/internal/kvstore"
)

// TestSpillTortureCutsAndBitflips is the crash+corrupt torture for the
// resident-budget spill path: a budgeted table builds a real history —
// clean inserts, deletes, SetClean transitions, lookups that fault
// spilled files back in, and a mid-history Compact — so the final
// persistent image interleaves op records with sealed spill baselines
// across both the WAL and the compacted snapshot. Then ~500 WAL
// truncation points and ~500 seeded bitflips. For every damaged image,
// opening must succeed and the recovered table must equal the state
// after some prefix of the mutation sequence; a bitflip that reaches a
// spill record may instead quarantine its file, in which case every
// file individually must still be at one of its own prefix states or
// empty — damage may drop metadata, never invent it.
func TestSpillTortureCutsAndBitflips(t *testing.T) {
	type op struct {
		kind         int // 0 insert, 1 delete, 2 setclean
		file         string
		off, l, cOff int64
		dirty        bool
	}
	backend := kvstore.NewMemBackend()
	store := openMetaStore(t, backend)
	table, err := dmt.Open(store, dmt.WithMetaBudget(700))
	if err != nil {
		t.Fatal(err)
	}
	file := func(i int) string { return fmt.Sprintf("sp%02d", i) }
	rng := rand.New(rand.NewSource(11))
	var ops []op
	var nextCacheOff int64
	apply := func(tb interface {
		Insert(string, int64, int64, int64, bool) error
		Delete(string, int64, int64) error
		SetClean(string, int64, int64) error
	}, o op) error {
		switch o.kind {
		case 0:
			return tb.Insert(o.file, o.off, o.l, o.cOff, o.dirty)
		case 1:
			return tb.Delete(o.file, o.off, o.l)
		default:
			return tb.SetClean(o.file, o.off, o.l)
		}
	}
	for i := 0; i < 150; i++ {
		o := op{
			file: file(rng.Intn(12)),
			off:  int64(rng.Intn(64)) * 4096,
			l:    int64(rng.Intn(4)+1) * 4096,
		}
		switch r := rng.Intn(8); {
		case r == 0:
			o.kind = 1
		case r == 1:
			o.kind = 2
		default:
			o.kind = 0
			o.cOff = nextCacheOff
			o.dirty = rng.Intn(6) == 0
			nextCacheOff += o.l
		}
		if err := apply(table, o); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, o)
		// Interleaved lookups churn the spill machinery: cold files fault
		// back in, pushing other files out, so the log accumulates spill
		// baselines at many different BaseSeqs.
		if i%3 == 0 {
			table.Lookup(file(rng.Intn(12)), 0, 64*4096)
		}
		if i == 75 {
			if err := table.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := table.Stats(); st.Spills == 0 || st.FaultIns == 0 {
		t.Fatalf("history never exercised the spill machinery: %+v", st)
	}
	var snap snapWriter
	if _, err := snap.write(store, table, cdt.New(0), 1, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	// Oracles. Global: the canonical state after every prefix of the
	// mutation sequence. Per-file: each file's state after every prefix,
	// for the quarantine arm (a quarantined file drops to empty while the
	// others keep advancing, so the global cut is no longer a prefix).
	fileState := func(set string, name string) string {
		var lines []string
		for _, ln := range strings.Split(set, "\n") {
			if strings.HasPrefix(ln, name+":") {
				lines = append(lines, ln)
			}
		}
		return strings.Join(lines, "\n")
	}
	prefixStates := make(map[string]bool, len(ops)+1)
	perFile := make(map[string]map[string]bool)
	for i := 0; i < 12; i++ {
		perFile[file(i)] = map[string]bool{"": true}
	}
	mem := dmt.New()
	prefixStates[extentSet(nil, nil)] = true
	for _, o := range ops {
		_ = apply(mem, o)
		set := extentSet(mem.DirtyExtents(0), mem.CleanExtents(0))
		prefixStates[set] = true
		perFile[o.file][fileState(set, o.file)] = true
	}

	walRaw, err := backend.ReadAll("dmt.wal")
	if err != nil || len(walRaw) == 0 {
		t.Fatalf("no WAL to torture (err=%v)", err)
	}
	snapRaw, err := backend.ReadAll("dmt.snap")
	if err != nil || len(snapRaw) == 0 {
		t.Fatalf("no compacted snapshot to carry (err=%v)", err)
	}

	check := func(tag string, wal []byte, allowQuarantine bool) {
		t.Helper()
		nb := kvstore.NewMemBackend()
		if err := nb.Replace("dmt.snap", snapRaw); err != nil {
			t.Fatal(err)
		}
		if len(wal) > 0 {
			if err := nb.Replace("dmt.wal", wal); err != nil {
				t.Fatal(err)
			}
		}
		st, err := kvstore.Open(nb, "dmt", kvstore.Options{})
		if err != nil {
			t.Fatalf("%s: store open failed: %v", tag, err)
		}
		// The real recovery path, unbounded so the dump needs no budget
		// caveats; CleanExtents faults every surviving spill record in,
		// which is where a damaged record quarantines.
		re, err := dmt.Open(st)
		if err != nil {
			t.Fatalf("%s: table open failed: %v", tag, err)
		}
		got := extentSet(re.DirtyExtents(0), re.CleanExtents(0))
		if prefixStates[got] {
			return
		}
		q := re.Stats().SpillQuarantined
		if !allowQuarantine || q == 0 {
			t.Fatalf("%s: recovered state is not any prefix state (quarantined=%d):\n%s", tag, q, got)
		}
		for i := 0; i < 12; i++ {
			name := file(i)
			if fs := fileState(got, name); !perFile[name][fs] {
				t.Fatalf("%s: after quarantine, %s is at an invented state:\n%s", tag, name, fs)
			}
		}
	}

	stride := len(walRaw)/500 + 1
	cuts := 0
	for cut := 0; cut <= len(walRaw); cut += stride {
		check(fmt.Sprintf("cut@%d", cut), walRaw[:cut], false)
		cuts++
	}
	frng := rand.New(rand.NewSource(101))
	flips := 500
	if cuts+flips < 1000 {
		flips = 1000 - cuts
	}
	for i := 0; i < flips; i++ {
		mut := append([]byte(nil), walRaw...)
		mut[frng.Intn(len(mut))] ^= 1 << frng.Intn(8)
		check(fmt.Sprintf("flip#%d", i), mut, true)
	}
	if cuts+flips < 1000 {
		t.Fatalf("torture only ran %d damage cases, want >= 1000", cuts+flips)
	}
}
