package label

import (
	"repro/internal/bitpack"
)

// This file is the read path's one join kernel: the merge-join of an
// out-list and an in-list over common hubs (Equations 1-2). Every caller
// — unbounded SCCnt reads, bounded screening reads, the INCCNT prune —
// goes through Join. Two loops
// implement it, one per list form:
//
//   - joinSlices, when both lists are mutable (plain slices or CSR arena
//     spans): it walks the shorter list and finds each hub in the longer
//     one, by a linear advance on balanced lengths and by galloping
//     (exponential + binary search) on badly skewed ones — the
//     hub-vertex-vs-leaf shape where a linear merge wastes almost all of
//     its comparisons;
//   - joinCursors, when either list is frozen: a leapfrog merge over lcur
//     cursors behind the bloom pre-screen, where each side seeks to the
//     other's hub (galloping on a mutable side, sync-record search on a
//     frozen one).
//
// Both loops combine identically: the same distances, the same saturating
// count arithmetic in the same ascending-hub order, so answers are
// byte-identical across forms. Both are pure reads and safe under any
// concurrency the caller arranges for the lists themselves.

// gallopRatio is the length skew at which the slice join switches from
// the linear advance to galloping through the longer list. Below it the
// sequential scan wins on locality; above it the short side's entries are
// rare enough that O(short · log(long)) beats O(short + long). The
// crossover is flat around 8-32 on the BenchmarkJoin* suite; 16 sits in
// the middle.
const gallopRatio = 16

// Join evaluates Equations (1)-(2) restricted to distances ≤ maxDist: the
// minimum sd(s,h)+sd(h,t) over the common hubs of an out-list of s and an
// in-list of t and the saturating sum of count products at that
// distance. When no common hub meets the bound it returns
// (Unreachable, 0); pass Unreachable as maxDist for the plain unbounded
// query.
//
// The bound tightens to the best distance found (larger sums can no
// longer matter), pairs above it never enter the count arithmetic, and
// entries whose own distance already exceeds it are skipped outright.
// When either list is frozen, the bloom signatures screen out
// non-intersecting pairs in O(words) before any entry decodes.
func Join(out, in *List, maxDist int) (dist int, count uint64) {
	// Sums at or past the Unreachable sentinel can never be answers.
	if maxDist >= Unreachable {
		maxDist = Unreachable - 1
	}
	if maxDist < 0 {
		return Unreachable, 0
	}
	if out.fz == nil && in.fz == nil {
		// The combine step is symmetric in the two sides, so the slice
		// loop only needs "short" and "long".
		if len(out.e) <= len(in.e) {
			return joinSlices(out.e, in.e, maxDist)
		}
		return joinSlices(in.e, out.e, maxDist)
	}
	var a, b lcur
	a.init(out)
	b.init(in)
	if sigReject(&a, &b) {
		return Unreachable, 0
	}
	return joinCursors(&a, &b, maxDist)
}

// sigReject reports whether the bloom signatures prove the two lists
// share no hub. Only pairs where both sides carry a signature count as
// checks, and only when the out-list's arena reports to BloomStats.
func sigReject(a, b *lcur) bool {
	if !a.fc.hasSig || !b.fc.hasSig {
		return false
	}
	reject := a.fc.sig&b.fc.sig == 0
	if a.fc.stats {
		bloomChecks.Add(1)
		if reject {
			bloomRejects.Add(1)
		}
	}
	return reject
}

// joinSlices is Join over two entry slices. Every short entry within the
// bound locates its hub in the long list — a linear advance when the
// lengths are comparable, a gallop (seekHub) when the long side is
// gallopRatio times longer — so the long-side cursor only ever moves
// forward.
func joinSlices(short, long []bitpack.Entry, bound int) (dist int, count uint64) {
	dist = Unreachable
	gallop := len(long) >= gallopRatio*len(short)
	j := 0
	for _, a := range short {
		da := a.Dist()
		if da > bound {
			continue // hub order is ascending, so the long cursor stays valid
		}
		h := a.Hub()
		if gallop {
			j = seekHub(long, j, h)
		} else {
			for j < len(long) && long[j].Hub() < h {
				j++
			}
		}
		if j == len(long) {
			break
		}
		b := long[j]
		if b.Hub() != h {
			continue
		}
		j++
		d := da + b.Dist()
		if d > bound {
			continue
		}
		if d < dist {
			dist, bound = d, d
			count = bitpack.SatMul(a.Count(), b.Count())
		} else { // d == dist: the bound pinned d ≤ dist already
			count = bitpack.SatAdd(count, bitpack.SatMul(a.Count(), b.Count()))
		}
	}
	return dist, count
}

// seekHub returns the first index i ≥ from with l[i].Hub() ≥ hub (len(l)
// when none), galloping: doubling steps bracket the position, a binary
// search pins it. Cost is O(log distance-moved), so a full pass over a
// short list moves through the long list in O(short · log(long)) total.
func seekHub(l []bitpack.Entry, from, hub int) int {
	if from >= len(l) || l[from].Hub() >= hub {
		return from
	}
	// Invariant below: l[lo].Hub() < hub.
	lo, step := from, 1
	for lo+step < len(l) && l[lo+step].Hub() < hub {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(l) {
		hi = len(l)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].Hub() < hub {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// joinCursors is Join in leapfrog-cursor form, for pairs where at least
// one list streams a compressed section.
func joinCursors(a, b *lcur, bound int) (dist int, count uint64) {
	dist = Unreachable
	for a.ok() && b.ok() {
		ea, eb := a.cur(), b.cur()
		ha, hb := ea.Hub(), eb.Hub()
		switch {
		case ha == hb:
			a.next()
			b.next()
			da := ea.Dist()
			if da > bound {
				continue
			}
			d := da + eb.Dist()
			if d > bound {
				continue
			}
			if d < dist {
				dist, bound = d, d
				count = bitpack.SatMul(ea.Count(), eb.Count())
			} else { // d == dist
				count = bitpack.SatAdd(count, bitpack.SatMul(ea.Count(), eb.Count()))
			}
		case ha < hb:
			a.seekGE(hb)
		default:
			b.seekGE(ha)
		}
	}
	return dist, count
}

// lcur walks one list in ascending hub order regardless of its form.
type lcur struct {
	es     []bitpack.Entry // mutable backing
	i      int
	fc     fcursor // frozen backing
	frozen bool
}

func (c *lcur) init(l *List) {
	if l.fz != nil {
		c.frozen = true
		c.fc = l.fz.cursor(l.fi)
		return
	}
	c.es = l.e
}

func (c *lcur) ok() bool {
	if c.frozen {
		return c.fc.ok
	}
	return c.i < len(c.es)
}

func (c *lcur) cur() bitpack.Entry {
	if c.frozen {
		return c.fc.cur
	}
	return c.es[c.i]
}

func (c *lcur) next() {
	if c.frozen {
		c.fc.next()
		return
	}
	c.i++
}

// seekGE advances to the first entry with hub ≥ target: galloping on a
// slice, sync-record search plus at most one block decode on a frozen
// stream.
func (c *lcur) seekGE(target int) {
	if c.frozen {
		c.fc.seekGE(target)
		return
	}
	c.i = seekHub(c.es, c.i, target)
}
