package label

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitpack"
)

func mk(hub, dist int, count uint64) bitpack.Entry {
	return bitpack.Pack(hub, dist, count)
}

func TestAppendKeepsOrder(t *testing.T) {
	var l List
	l.Append(mk(1, 2, 1))
	l.Append(mk(5, 1, 2))
	l.Append(mk(9, 0, 1))
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	for i := 1; i < l.Len(); i++ {
		if l.Entries()[i-1].Hub() >= l.Entries()[i].Hub() {
			t.Fatal("not sorted")
		}
	}
	// Out-of-order append falls back to sorted insert.
	l.Append(mk(3, 7, 4))
	if got := l.Hubs(); !equalInts(got, []int{1, 3, 5, 9}) {
		t.Fatalf("hubs = %v", got)
	}
	// Appending existing hub replaces.
	l.Append(mk(3, 2, 9))
	e, ok := l.Lookup(3)
	if !ok || e.Dist() != 2 || e.Count() != 9 {
		t.Fatalf("replace failed: %v %v", e, ok)
	}
	if l.Len() != 4 {
		t.Fatalf("len after replace = %d", l.Len())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSetRemoveLookup(t *testing.T) {
	var l List
	if ins := l.Set(mk(4, 1, 1)); !ins {
		t.Fatal("Set on empty should insert")
	}
	if ins := l.Set(mk(4, 2, 2)); ins {
		t.Fatal("Set existing should replace")
	}
	if _, ok := l.Lookup(5); ok {
		t.Fatal("phantom lookup")
	}
	if !l.Remove(4) || l.Remove(4) {
		t.Fatal("Remove semantics")
	}
	if l.Len() != 0 {
		t.Fatal("not empty after remove")
	}
}

func TestJoinPaperExample2(t *testing.T) {
	// Example 2: SPCnt(v10, v8) via Lout(v10) and Lin(v8).
	// Rank positions (Example 4): v1=0, v7=1, v4=2, v10=3, v8=8.
	var out, in List
	out.Append(mk(0, 1, 1)) // (v1,1,1)
	out.Append(mk(1, 3, 1)) // (v7,3,1)
	out.Append(mk(2, 2, 1)) // (v4,2,1)
	out.Append(mk(3, 0, 1)) // (v10,0,1)
	in.Append(mk(0, 3, 2))  // (v1,3,2)
	in.Append(mk(1, 1, 1))  // (v7,1,1)
	in.Append(mk(8, 0, 1))  // (v8,0,1)
	// Both hubs v1 (1+3) and v7 (3+1) reach 4; their counts sum.
	d, c := Join(&out, &in, Unreachable)
	if d != 4 || c != 3 {
		t.Fatalf("Join = (%d,%d), want (4,3)", d, c)
	}
}

func TestJoinDisjoint(t *testing.T) {
	var out, in List
	out.Append(mk(0, 1, 1))
	in.Append(mk(1, 1, 1))
	if d, c := Join(&out, &in, Unreachable); d != Unreachable || c != 0 {
		t.Fatalf("disjoint join = (%d,%d)", d, c)
	}
	var empty List
	if d, _ := Join(&empty, &in, Unreachable); d != Unreachable {
		t.Fatal("empty join should be unreachable")
	}
}

func TestJoinSaturates(t *testing.T) {
	var out, in List
	out.Append(mk(0, 1, bitpack.MaxCount))
	in.Append(mk(0, 1, bitpack.MaxCount))
	if _, c := Join(&out, &in, Unreachable); c != bitpack.MaxCount {
		t.Fatalf("count = %d, want saturation", c)
	}
}

func TestClone(t *testing.T) {
	var l List
	l.Append(mk(1, 1, 1))
	c := l.Clone()
	c.Set(mk(2, 2, 2))
	if l.Len() != 1 {
		t.Fatal("clone aliases original")
	}
	if l.Bytes() != 8 || c.Bytes() != 16 {
		t.Fatalf("Bytes = %d/%d", l.Bytes(), c.Bytes())
	}
}

// Property: a List built by random Set/Remove matches a reference map and
// stays sorted.
func TestListMatchesReferenceMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var l List
		ref := map[int]bitpack.Entry{}
		for op := 0; op < 300; op++ {
			hub := r.Intn(40)
			if r.Intn(3) == 0 {
				l.Remove(hub)
				delete(ref, hub)
			} else {
				e := mk(hub, r.Intn(100), uint64(r.Intn(1000)))
				l.Set(e)
				ref[hub] = e
			}
		}
		if l.Len() != len(ref) {
			return false
		}
		for i := 1; i < l.Len(); i++ {
			if l.Entries()[i-1].Hub() >= l.Entries()[i].Hub() {
				return false
			}
		}
		for hub, want := range ref {
			got, ok := l.Lookup(hub)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Join equals a naive nested-loop evaluation of Equations (1)-(2).
func TestJoinMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var out, in List
		for _, l := range []*List{&out, &in} {
			hubs := r.Perm(30)[:r.Intn(12)]
			sort.Ints(hubs)
			for _, h := range hubs {
				l.Append(mk(h, 1+r.Intn(20), uint64(1+r.Intn(50))))
			}
		}
		gotD, gotC := Join(&out, &in, Unreachable)
		wantD, wantC := Unreachable, uint64(0)
		for _, oe := range out.Entries() {
			for _, ie := range in.Entries() {
				if oe.Hub() != ie.Hub() {
					continue
				}
				d := oe.Dist() + ie.Dist()
				if d < wantD {
					wantD, wantC = d, oe.Count()*ie.Count()
				} else if d == wantD {
					wantC += oe.Count() * ie.Count()
				}
			}
		}
		if wantD == Unreachable {
			wantC = 0
		}
		return gotD == wantD && gotC == wantC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
