package label

import (
	"math/rand"
	"testing"

	"repro/internal/bitpack"
)

// refJoin is the obviously-correct reference: hash the out side, probe
// every in entry, track the minimum within the bound and its saturating
// count sum.
func refJoin(oe, ie []bitpack.Entry, maxDist int) (dist int, count uint64) {
	byHub := make(map[int]bitpack.Entry, len(oe))
	for _, e := range oe {
		byHub[e.Hub()] = e
	}
	dist = Unreachable
	for _, b := range ie {
		a, ok := byHub[b.Hub()]
		if !ok {
			continue
		}
		d := a.Dist() + b.Dist()
		if d > maxDist || d >= Unreachable {
			continue
		}
		if d < dist {
			dist = d
			count = bitpack.SatMul(a.Count(), b.Count())
		} else if d == dist {
			count = bitpack.SatAdd(count, bitpack.SatMul(a.Count(), b.Count()))
		}
	}
	return dist, count
}

// randList draws n distinct hubs from [0, hubSpace) in ascending order
// with random distances and counts.
func randList(r *rand.Rand, n, hubSpace, maxD int) []bitpack.Entry {
	if n > hubSpace {
		n = hubSpace
	}
	hubs := r.Perm(hubSpace)[:n]
	out := make([]bitpack.Entry, 0, n)
	seen := make(map[int]bool, n)
	for _, h := range hubs {
		seen[h] = true
	}
	for h := 0; h < hubSpace; h++ {
		if seen[h] {
			out = append(out, bitpack.Pack(h, r.Intn(maxD), uint64(1+r.Intn(200))))
		}
	}
	return out
}

// Join must agree with the reference — distance and count —
// on random lists in all four form pairs (mutable or frozen on each
// side), at every skew including the shapes at and around gallopRatio on
// either side, and at every bound from "nothing fits" to unbounded.
func TestJoinKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const g = gallopRatio
	shapes := [][2]int{
		{0, 0}, {0, 40}, {40, 0}, {1, 1}, {2, 3}, {3, 2}, // below sigMinEntries
		{5, 5}, {30, 30}, {64, 64},
		{1, 200}, {200, 1}, {3, 500}, {500, 3}, // gallop on each side
		{1, g - 1}, {1, g}, {1, g + 1}, // around the ratio with one entry
		{15, g*15 - 1}, {15, g * 15}, {g*15 + 1, 15}, // around the ratio, both sides
		{40, 700}, {700, 40}, // sync blocks on one side
	}
	for trial := 0; trial < 264; trial++ {
		shape := shapes[trial%len(shapes)]
		hubSpace := shape[0] + shape[1] + 1 + r.Intn(300)
		// Few distinct distances, so ties at the minimum are common.
		oe := randList(r, shape[0], hubSpace, 12)
		ie := randList(r, shape[1], hubSpace, 12)

		mo, mi := listOf(oe), listOf(ie)
		group := []List{listOf(oe), listOf(ie)}
		FreezeCompressed(group)
		fo, fi := &group[0], &group[1]
		if shape[0] > 0 && !fo.Frozen() {
			t.Fatalf("trial %d: out list not frozen", trial)
		}
		pairs := [][2]*List{{&mo, &mi}, {fo, fi}, {fo, &mi}, {&mo, fi}}

		wd, _ := refJoin(oe, ie, Unreachable)
		for _, bound := range []int{-1, 0, 3, wd, wd + 1, 100, Unreachable} {
			rd, rc := refJoin(oe, ie, bound)
			for p, pr := range pairs {
				if d, c := Join(pr[0], pr[1], bound); d != rd || c != rc {
					t.Fatalf("trial %d shape %v pair %d bound %d: Join = (%d,%d), want (%d,%d)",
						trial, shape, p, bound, d, c, rd, rc)
				}
			}
		}
	}
}

// A hand-checked pair: the bound admits nothing below the true distance,
// everything from it up, and ties at the minimum sum their counts.
func TestJoinBoundedExample(t *testing.T) {
	var out, in List
	out.Append(bitpack.Pack(1, 2, 3))
	out.Append(bitpack.Pack(4, 1, 2))
	in.Append(bitpack.Pack(1, 1, 5))
	in.Append(bitpack.Pack(4, 2, 7))
	if d, c := Join(&out, &in, Unreachable); d != 3 || c != 15+14 {
		t.Fatalf("Join = (%d,%d)", d, c)
	}
	if d, c := Join(&out, &in, 2); d != Unreachable || c != 0 {
		t.Fatalf("Join(bound 2) = (%d,%d), want unreachable", d, c)
	}
	if d, c := Join(&out, &in, 3); d != 3 || c != 29 {
		t.Fatalf("Join(bound 3) = (%d,%d)", d, c)
	}
}

// seekHub is the gallop's pivot; pin its boundary behavior directly.
func TestSeekHub(t *testing.T) {
	var l []bitpack.Entry
	for _, h := range []int{2, 5, 9, 14, 30, 31, 90} {
		l = append(l, bitpack.Pack(h, 1, 1))
	}
	for _, tc := range [][3]int{
		{0, 0, 0},  // before the first hub
		{0, 2, 0},  // exact first
		{0, 3, 1},  // between
		{0, 91, 7}, // past the end
		{3, 14, 3}, // from its own index
		{2, 31, 5}, // gallop over a run
		{7, 5, 7},  // from == len
	} {
		if got := seekHub(l, tc[0], tc[1]); got != tc[2] {
			t.Fatalf("seekHub(from=%d, hub=%d) = %d, want %d", tc[0], tc[1], got, tc[2])
		}
	}
}
