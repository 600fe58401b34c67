package pll_test

import (
	"testing"

	"repro/internal/csc"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/testgraphs"
)

// Construction borrows one scratch from the pool for the whole build and
// returns it, so a freshly built index — every shard of a sharded build
// included, since each is one of these constructions — pins none. The
// first update materializes one again, and ReleaseScratch drops it.
func TestConstructionPinsNoScratch(t *testing.T) {
	g := testgraphs.GiantSCC(200, 800, 3)
	ord := order.ByDegree(g)
	builds := map[string]*pll.Index{}
	builds["pll"], _ = pll.Build(g.Clone(), ord, pll.Options{})
	generic, _ := csc.Build(g.Clone(), ord, csc.Options{GenericConstruction: true})
	builds["csc generic"] = generic.Engine()
	skipping, _ := csc.Build(g.Clone(), ord, csc.Options{})
	builds["csc skipping"] = skipping.Engine()
	for name, idx := range builds {
		if idx.PinsScratch() {
			t.Errorf("%s: a fresh build pins its construction scratch", name)
		}
	}

	idx := builds["pll"]
	a, b := 0, 1
	for idx.G.HasEdge(a, b) {
		b++
	}
	if _, err := idx.InsertEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if !idx.PinsScratch() {
		t.Fatal("an update ran without materializing the scratch")
	}
	idx.ReleaseScratch()
	if idx.PinsScratch() {
		t.Fatal("ReleaseScratch kept the scratch")
	}
}
