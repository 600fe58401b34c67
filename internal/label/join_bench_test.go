package label

import (
	"math/rand"
	"testing"

	"repro/internal/bitpack"
)

// The BenchmarkJoin* suite measures the join kernel shapes the read path
// cares about: balanced merges (typical vertex-vertex queries), skewed
// merges (a leaf's short list against a hub vertex's long one — the shape
// the galloping path exists for), bounded joins, and the cursor loop over
// two frozen lists.
// EXPERIMENTS.md records representative numbers.

// benchLists builds an out/in pair with the given lengths over a shared
// hub space sized so roughly half the shorter list's hubs match.
func benchLists(nOut, nIn int) (oe, ie []bitpack.Entry) {
	r := rand.New(rand.NewSource(int64(nOut)*1_000_003 + int64(nIn)))
	space := 2 * (nOut + nIn)
	return randList(r, nOut, space, 12), randList(r, nIn, space, 12)
}

// joinMergeOnly is the pre-gallop linear merge, kept as the benchmark
// baseline so the gallop crossover stays measurable.
func joinMergeOnly(oe, ie []bitpack.Entry) (dist int, count uint64) {
	dist = Unreachable
	i, j := 0, 0
	for i < len(oe) && j < len(ie) {
		a, b := oe[i], ie[j]
		ha, hb := a.Hub(), b.Hub()
		if ha == hb {
			d := a.Dist() + b.Dist()
			if d < dist {
				dist = d
				count = bitpack.SatMul(a.Count(), b.Count())
			} else if d == dist {
				count = bitpack.SatAdd(count, bitpack.SatMul(a.Count(), b.Count()))
			}
			i++
			j++
			continue
		}
		if ha < hb {
			i++
		} else {
			j++
		}
	}
	if dist == Unreachable {
		return Unreachable, 0
	}
	return dist, count
}

var sinkDist int
var sinkCount uint64

// benchJoin times Join over a mutable out/in pair at the given bound.
func benchJoin(b *testing.B, nOut, nIn, maxDist int) {
	oe, ie := benchLists(nOut, nIn)
	out, in := listOf(oe), listOf(ie)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDist, sinkCount = Join(&out, &in, maxDist)
	}
}

// benchFrozenJoin is benchJoin with both lists frozen by FreezeCompressed,
// so every iteration runs the cursor loop over compressed sections.
func benchFrozenJoin(b *testing.B, nOut, nIn int) {
	oe, ie := benchLists(nOut, nIn)
	group := []List{listOf(oe), listOf(ie)}
	FreezeCompressed(group)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDist, sinkCount = Join(&group[0], &group[1], Unreachable)
	}
}

// benchSliceKernel times a raw slice kernel such as joinMergeOnly.
func benchSliceKernel(b *testing.B, nOut, nIn int, f func(oe, ie []bitpack.Entry) (int, uint64)) {
	oe, ie := benchLists(nOut, nIn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDist, sinkCount = f(oe, ie)
	}
}

func BenchmarkJoinBalanced32(b *testing.B)  { benchJoin(b, 32, 32, Unreachable) }
func BenchmarkJoinBalanced256(b *testing.B) { benchJoin(b, 256, 256, Unreachable) }

// The skewed pair: the same lists through the plain merge and through
// Join (which takes the gallop path at this skew).
func BenchmarkJoinSkewMerge4x1024(b *testing.B)    { benchSliceKernel(b, 4, 1024, joinMergeOnly) }
func BenchmarkJoinSkewGallop4x1024(b *testing.B)   { benchJoin(b, 4, 1024, Unreachable) }
func BenchmarkJoinSkewMerge16x4096(b *testing.B)   { benchSliceKernel(b, 16, 4096, joinMergeOnly) }
func BenchmarkJoinSkewGallop16x4096(b *testing.B)  { benchJoin(b, 16, 4096, Unreachable) }
func BenchmarkJoinDistBalanced256(b *testing.B)    { benchJoin(b, 256, 256, Unreachable) }
func BenchmarkJoinBoundedTight256(b *testing.B)    { benchJoin(b, 256, 256, 2) }
func BenchmarkJoinBoundedLoose256(b *testing.B)    { benchJoin(b, 256, 256, Unreachable) }
func BenchmarkJoinBoundedSkew16x4096(b *testing.B) { benchJoin(b, 16, 4096, 6) }

func BenchmarkJoinFrozenBalanced256(b *testing.B) { benchFrozenJoin(b, 256, 256) }
func BenchmarkJoinFrozenSkew16x4096(b *testing.B) { benchFrozenJoin(b, 16, 4096) }
