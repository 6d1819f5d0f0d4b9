package emu

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/workload"
)

// Copy-on-write suite: a checkpoint shares its pages with the emulator
// it was taken from and with every emulator restored from it. These
// tests pin the isolation that sharing must keep — no write ever
// reaches a page someone else can see — and the cost it exists to cut.

// TestStoreAfterCheckpointLeavesCheckpoint: a store after Checkpoint
// copies the written page and no other; the checkpoint keeps the old
// contents.
func TestStoreAfterCheckpointLeavesCheckpoint(t *testing.T) {
	p := checkpointProg(t)
	e := MustNew(p)
	collect(t, e, 500)
	addr := p.DataBase + 8*5
	before := e.Mem().Load(addr)
	cp := e.Checkpoint()
	key := addr >> pageBits
	shared := cp.pages[key].words
	if e.mem.pages[key].words != shared {
		t.Fatal("checkpoint copied the page instead of sharing it")
	}

	e.Mem().Store(addr, before+1)
	if got := e.Mem().Load(addr); got != before+1 {
		t.Fatalf("emulator reads %d after its store, want %d", got, before+1)
	}
	if e.mem.pages[key].words == shared {
		t.Fatal("store wrote into the shared page in place")
	}
	if got := shared[(addr>>3)&(pageWords-1)]; got != before {
		t.Fatalf("checkpoint page holds %d after a later store, want %d", got, before)
	}
	// A second store goes to the now-owned copy without copying again.
	owned := e.mem.pages[key].words
	e.Mem().Store(addr, before+2)
	if e.mem.pages[key].words != owned {
		t.Fatal("store to an owned page copied it again")
	}

	r, err := NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Mem().Load(addr); got != before {
		t.Fatalf("restored emulator reads %d, want the checkpoint's %d", got, before)
	}
}

// TestRestoredEmulatorsDivergeIndependently: two emulators restored
// from one checkpoint write the same word differently and each sees
// only its own store; a third restore still sees the original pages.
func TestRestoredEmulatorsDivergeIndependently(t *testing.T) {
	p := checkpointProg(t)
	e := MustNew(p)
	e.Restart = true
	collect(t, e, 700)
	cp := e.Checkpoint()
	addr := p.DataBase + 8*17
	orig := e.Mem().Load(addr)
	want := collect(t, e, 2000) // the original stream from the checkpoint

	a, err := NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	b := MustNew(p)
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	a.Mem().Store(addr, 111)
	b.Mem().Store(addr, 222)
	if ga, gb := a.Mem().Load(addr), b.Mem().Load(addr); ga != 111 || gb != 222 {
		t.Fatalf("restored emulators read %d and %d, want 111 and 222", ga, gb)
	}
	// Both run on, each over its own copy of the pages it writes.
	a.Restart, b.Restart = true, true
	collect(t, a, 1000)
	collect(t, b, 1000)

	c, err := NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	c.Restart = true
	if got := c.Mem().Load(addr); got != orig {
		t.Fatalf("third restore reads %d, want the original %d", got, orig)
	}
	got := collect(t, c, 2000)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("third restore diverges from the original stream at instruction %d", i)
		}
	}
}

// TestNewFromCheckpointMatchesRestore is the fork differential over the
// whole suite: for every workload, an emulator built by
// NewFromCheckpoint — which never loads the data segment — yields the
// same stream as New followed by Restore, and as the emulator the
// checkpoint was taken from, and all three end in the same state.
func TestNewFromCheckpointMatchesRestore(t *testing.T) {
	const prefix, n = 20_000, 20_000
	suite := workload.Suite()
	if len(suite) != 11 {
		t.Fatalf("suite has %d workloads, want 11", len(suite))
	}
	for _, w := range suite {
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(7)
			orig := MustNew(p)
			orig.Restart = true
			collect(t, orig, prefix)
			cp := orig.Checkpoint()

			fresh, err := NewFromCheckpoint(p, cp)
			if err != nil {
				t.Fatal(err)
			}
			restored := MustNew(p)
			if err := restored.Restore(cp); err != nil {
				t.Fatal(err)
			}
			for _, e := range []*Emulator{fresh, restored} {
				e.Restart = true
			}
			for i := 0; i < n; i++ {
				d0, ok0 := orig.Next()
				d1, ok1 := fresh.Next()
				d2, ok2 := restored.Next()
				if ok0 != ok1 || ok0 != ok2 || d0 != d1 || d0 != d2 {
					t.Fatalf("instruction %d: original %+v, NewFromCheckpoint %+v, New+Restore %+v", i, d0, d1, d2)
				}
			}
			a, b, c := orig.Checkpoint(), fresh.Checkpoint(), restored.Checkpoint()
			if !a.Equal(&b) || !a.Equal(&c) {
				t.Fatal("architectural state diverged after identical execution")
			}
		})
	}
}

// TestNewFromCheckpointAllocatesNoPages: forking an emulator off mcf's
// checkpoint shares its pages instead of copying them, so the fork's
// allocation count stays far below mcf's page count.
func TestNewFromCheckpointAllocatesNoPages(t *testing.T) {
	w, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no mcf workload")
	}
	p := w.Build(7)
	e := MustNew(p)
	e.Restart = true
	collect(t, e, 10_000)
	cp := e.Checkpoint()
	if len(cp.pages) < 200 {
		t.Fatalf("mcf maps only %d pages; the bound below would not show sharing", len(cp.pages))
	}
	const maxAllocs = 32
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewFromCheckpoint(p, cp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("NewFromCheckpoint allocates %.0f times per fork of %d pages, want at most %d",
			allocs, len(cp.pages), maxAllocs)
	}
}

// TestMarshalDeltaRoundTrip: a delta over an earlier checkpoint of the
// same stream encodes only the pages written since, decodes to the same
// state, and shares the base's unchanged pages.
func TestMarshalDeltaRoundTrip(t *testing.T) {
	e := run(t, 5000)
	base := e.Checkpoint()
	addr := e.prog.DataBase
	e.Mem().Store(addr, e.Mem().Load(addr)+1) // at least one changed page
	collect(t, e, 5000)
	cp := e.Checkpoint()

	full, err := cp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	delta, err := cp.MarshalDelta(&base)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(full) {
		t.Fatalf("delta is %d bytes, the full checkpoint %d", len(delta), len(full))
	}
	got, err := UnmarshalDelta(delta, e.prog, &base)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&cp) {
		t.Fatal("delta round trip differs from the checkpoint")
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, full) {
		t.Fatal("a checkpoint rebuilt from a delta does not re-serialize byte-identically")
	}
	sharedPages := 0
	for k, pg := range got.pages {
		if base.pages[k].words == pg.words {
			sharedPages++
		}
	}
	if sharedPages == 0 || sharedPages == len(got.pages) {
		t.Fatalf("rebuilt checkpoint shares %d of %d pages with its base", sharedPages, len(got.pages))
	}

	// A delta only decodes over its own base.
	if _, err := UnmarshalDelta(delta, e.prog, nil); err == nil {
		t.Error("delta decoded without its base")
	}
	// Memory never unmaps, so a base mapping a page the checkpoint lacks
	// is not an earlier point of the same stream.
	e.Mem().Store(1<<40, 1)
	bigger := e.Checkpoint()
	if _, err := cp.MarshalDelta(&bigger); err == nil {
		t.Error("delta over a base with an extra page accepted")
	}
}

// TestConcurrentForksOfOneCheckpoint: shared pages are read-only, so
// emulators forked from one checkpoint may run on separate goroutines;
// each yields the checkpoint's stream (run under -race in CI).
func TestConcurrentForksOfOneCheckpoint(t *testing.T) {
	p := checkpointProg(t)
	e := MustNew(p)
	e.Restart = true
	collect(t, e, 300)
	cp := e.Checkpoint()
	want := collect(t, e, 3000)

	const forks = 4
	errs := make(chan error, forks)
	for i := 0; i < forks; i++ {
		go func() {
			f, err := NewFromCheckpoint(p, cp)
			if err == nil {
				f.Restart = true
				for j, d := range want {
					if got, _ := f.Next(); got != d {
						err = fmt.Errorf("fork diverges at instruction %d", j)
						break
					}
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < forks; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
