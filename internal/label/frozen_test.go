package label

import (
	"math/rand"
	"testing"

	"repro/internal/bitpack"
)

func listOf(es []bitpack.Entry) List {
	return List{e: append([]bitpack.Entry(nil), es...)}
}

func entriesEqual(t *testing.T, tag string, got, want []bitpack.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %x, want %x", tag, i, got[i], want[i])
		}
	}
}

// Frozen lists must answer byte-identically to their mutable originals —
// distance, count and hub, at every bound — in every form mix
// (frozen×frozen, frozen×mutable, mutable×frozen). The hub space is wide
// so many pairs share no hub and are rejected by the bloom screen.
func TestFrozenJoinMatchesMutable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	shapes := [][2]int{
		{0, 0}, {0, 40}, {1, 1}, {2, 3}, {3, 2}, // below sigMinEntries
		{5, 5}, {30, 30}, {64, 64}, {200, 1}, {1, 200},
		{40, 700}, {700, 40}, // sync blocks on one side
	}
	for trial := 0; trial < 120; trial++ {
		shape := shapes[trial%len(shapes)]
		hubSpace := shape[0] + shape[1] + 1 + r.Intn(900)
		oe := randList(r, shape[0], hubSpace, 30)
		ie := randList(r, shape[1], hubSpace, 30)

		mo, mi := listOf(oe), listOf(ie)
		group := []List{listOf(oe), listOf(ie)}
		FreezeCompressed(group)
		fo, fi := &group[0], &group[1]
		if shape[0] > 0 && !fo.Frozen() {
			t.Fatalf("trial %d: out list not frozen", trial)
		}

		wd, _ := Join(&mo, &mi, Unreachable)
		pairs := [][2]*List{{fo, fi}, {fo, &mi}, {&mo, fi}}
		for _, bound := range []int{-1, 0, 3, wd, wd + 1, 100, Unreachable} {
			bd, bc := Join(&mo, &mi, bound)
			for p, pr := range pairs {
				if d, c := Join(pr[0], pr[1], bound); d != bd || c != bc {
					t.Fatalf("trial %d pair %d bound %d: Join = (%d,%d), want (%d,%d)",
						trial, p, bound, d, c, bd, bc)
				}
			}
		}
	}
}

// Freezing must preserve every read accessor, and a frozen list must be
// read-only: every call that needs the mutable slice panics and leaves
// the arena's bytes as they were.
func TestFreezePreservesReadOnly(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	lists := make([]List, 6)
	want := make([][]bitpack.Entry, 6)
	for i := range lists {
		want[i] = randList(r, []int{0, 1, 3, 10, 40, 90}[i], 400, 25)
		lists[i] = listOf(want[i])
	}
	f := FreezeCompressed(lists)
	if f.Entries() != 0+1+3+10+40+90 {
		t.Fatalf("frozen entries = %d", f.Entries())
	}
	if f.Bytes() >= 8*f.Entries() {
		t.Fatalf("compressed %d bytes not smaller than %d entries at 8 B", f.Bytes(), f.Entries())
	}
	for i := range lists {
		l := &lists[i]
		if !l.Frozen() {
			t.Fatalf("list %d not frozen", i)
		}
		if l.Len() != len(want[i]) {
			t.Fatalf("list %d: Len = %d, want %d", i, l.Len(), len(want[i]))
		}
		if l.Bytes() != 8*len(want[i]) {
			t.Fatalf("list %d: Bytes = %d", i, l.Bytes())
		}
		var got []bitpack.Entry
		l.Each(func(e bitpack.Entry) bool { got = append(got, e); return true })
		entriesEqual(t, "Each", got, want[i])
		entriesEqual(t, "AppendTo", l.AppendTo(nil), want[i])
		sec := f.Section(i)
		entriesEqual(t, "Section", sec.AppendTo(nil), want[i])
		cl := l.Clone()
		entriesEqual(t, "Clone", cl.Entries(), want[i])
		for _, e := range want[i] {
			got, ok := l.Lookup(e.Hub())
			if !ok || got != e {
				t.Fatalf("list %d: Lookup(%d) = (%x,%v), want %x", i, e.Hub(), got, ok, e)
			}
		}
		if _, ok := l.Lookup(401); ok {
			t.Fatalf("list %d: Lookup past the end succeeded", i)
		}
	}

	off, blob := f.Raw()
	before := string(off) + string(blob)
	for name, call := range map[string]func(l *List){
		"Entries": func(l *List) { l.Entries() },
		"Append":  func(l *List) { l.Append(bitpack.Pack(500, 1, 1)) },
		"Set":     func(l *List) { l.Set(bitpack.Pack(7, 1, 1)) },
		"Remove":  func(l *List) { l.Remove(want[4][0].Hub()) },
		"Reset":   func(l *List) { l.Reset() },
	} {
		for _, l := range []*List{&lists[4], func() *List { sec := f.Section(4); return &sec }()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a frozen list did not panic", name)
					}
				}()
				call(l)
			}()
			if !l.Frozen() {
				t.Fatalf("%s detached the frozen list", name)
			}
		}
	}
	if off, blob := f.Raw(); string(off)+string(blob) != before {
		t.Fatal("a mutating call changed the arena's bytes")
	}
	entriesEqual(t, "after refused writes", lists[4].AppendTo(nil), want[4])
	if err := f.Validate(bitpack.MaxHub + 1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// The serialization path: raw (off, blob) bytes round-trip through
// NewFrozen into sections that answer identically, and Validate accepts
// exactly the canonical encoding.
func TestFrozenRawRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	in := make([]List, 4)
	out := make([]List, 4)
	want := make(map[string][]bitpack.Entry)
	for i := range in {
		es := randList(r, 5+r.Intn(60), 300, 20)
		in[i] = listOf(es)
		want["in"+string(rune('0'+i))] = es
		es = randList(r, 5+r.Intn(60), 300, 20)
		out[i] = listOf(es)
		want["out"+string(rune('0'+i))] = es
	}
	f := FreezeCompressed(in, out)
	if err := f.Validate(300); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	blob := append([]byte(nil), f.blob...)
	off := append([]byte(nil), f.off...)
	f2, err := NewFrozen(off, blob)
	if err != nil {
		t.Fatalf("NewFrozen: %v", err)
	}
	if f2.Entries() != f.Entries() || f2.Lists() != f.Lists() {
		t.Fatalf("reloaded arena: %d lists %d entries, want %d/%d",
			f2.Lists(), f2.Entries(), f.Lists(), f.Entries())
	}
	for i := range in {
		var got []bitpack.Entry
		in2 := f2.Section(i)
		in2.Each(func(e bitpack.Entry) bool { got = append(got, e); return true })
		entriesEqual(t, "reloaded in", got, want["in"+string(rune('0'+i))])
		got = got[:0]
		out2 := f2.Section(len(in) + i)
		out2.Each(func(e bitpack.Entry) bool { got = append(got, e); return true })
		entriesEqual(t, "reloaded out", got, want["out"+string(rune('0'+i))])
	}

	// Structural rejects.
	if _, err := NewFrozen(off[:len(off)-4], blob); err == nil {
		t.Fatal("short offset table accepted")
	}
	if _, err := NewFrozen(off, blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	// Corruption rejects under Validate: shrink list 0's count byte so
	// its entry stream has trailing bytes the decode never consumes.
	bad := append([]byte(nil), blob...)
	bad[0]-- // lists here have 5-64 entries: a one-byte uvarint
	f3, err := NewFrozen(off, bad)
	if err != nil {
		t.Fatalf("NewFrozen(corrupt count): %v", err)
	}
	if err := f3.Validate(300); err == nil {
		t.Fatal("corrupt blob validated cleanly")
	}
}

// Bloom signatures must reject disjoint pairs without decoding and must
// never reject intersecting ones (no false negatives by construction:
// the signature is an OR over exact hub bits).
func TestBloomSignatures(t *testing.T) {
	disjointA := listOf([]bitpack.Entry{
		bitpack.Pack(1, 1, 1), bitpack.Pack(2, 1, 1), bitpack.Pack(3, 1, 1), bitpack.Pack(4, 1, 1),
	})
	disjointB := listOf([]bitpack.Entry{
		bitpack.Pack(100, 1, 1), bitpack.Pack(200, 1, 1), bitpack.Pack(300, 1, 1), bitpack.Pack(400, 1, 1),
	})
	group := []List{disjointA, disjointB}
	FreezeCompressed(group)
	c0, r0 := BloomStats()
	if d, c := Join(&group[0], &group[1], Unreachable); d != Unreachable || c != 0 {
		t.Fatalf("disjoint Join = (%d,%d)", d, c)
	}
	c1, r1 := BloomStats()
	if c1 != c0+1 {
		t.Fatalf("bloom checks %d -> %d, want +1", c0, c1)
	}
	if r1 != r0+1 {
		t.Fatalf("disjoint sig pair not rejected (rejects %d -> %d); hubs collide in the signature", r0, r1)
	}

	// Short lists carry no signature: joining them is never a "check".
	shortA := listOf([]bitpack.Entry{bitpack.Pack(1, 1, 1)})
	shortB := listOf([]bitpack.Entry{bitpack.Pack(9, 1, 1)})
	sg := []List{shortA, shortB}
	FreezeCompressed(sg)
	c2, _ := BloomStats()
	Join(&sg[0], &sg[1], Unreachable)
	if c3, _ := BloomStats(); c3 != c2 {
		t.Fatal("sig-less pair counted as a bloom check")
	}

	// A reduced store (pll's lean index) is one arena of stored lists
	// read as sections: Lin at section v, Lout at section n+v. Its
	// Section views screen too — a disjoint pair is rejected from the
	// signatures, an intersecting one is checked and joined — and once
	// the store skips the counters, as pll's freeze does, the same
	// joins answer identically without moving them.
	store := FreezeCompressed(
		[]List{listOf(disjointA.Entries()), listOf(disjointB.Entries())},
		[]List{listOf(disjointB.Entries()), listOf(disjointA.Entries())})
	join := func(out, in int) (int, uint64) {
		o, i := store.Section(out), store.Section(in)
		return Join(&o, &i, Unreachable)
	}
	c4, r4 := BloomStats()
	if d, c := join(2, 0); d != Unreachable || c != 0 {
		t.Fatalf("disjoint Join over a reduced store = (%d,%d)", d, c)
	}
	if d, c := join(2, 1); d != 2 || c != 4 {
		t.Fatalf("intersecting Join over a reduced store = (%d,%d), want (2,4)", d, c)
	}
	if c5, r5 := BloomStats(); c5 != c4+2 || r5 != r4+1 {
		t.Fatalf("reduced store: checks %d -> %d, rejects %d -> %d; want +2 and +1", c4, c5, r4, r5)
	}
	store.SkipBloomStats()
	c6, r6 := BloomStats()
	if d, c := join(2, 0); d != Unreachable || c != 0 {
		t.Fatalf("disjoint Join over a quiet store = (%d,%d)", d, c)
	}
	if d, c := join(2, 1); d != 2 || c != 4 {
		t.Fatalf("intersecting Join over a quiet store = (%d,%d), want (2,4)", d, c)
	}
	if c7, r7 := BloomStats(); c7 != c6 || r7 != r6 {
		t.Fatalf("quiet store moved the bloom counters: checks %d -> %d, rejects %d -> %d", c6, c7, r6, r7)
	}
}
