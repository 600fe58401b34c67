package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/bfscount"
	"repro/internal/graph"
	"repro/internal/serve"
)

// answer is one SCCnt answer: the shortest cycle length through a vertex
// (bfscount.NoCycle for none) and how many such cycles there are.
type answer struct {
	length int
	count  uint64
}

func oracle(g *graph.Digraph, v int) answer {
	l, c := bfscount.CycleCount(g, v)
	return answer{l, c}
}

func parseAnswer(body []byte) (answer, error) {
	var cj serve.CycleJSON
	if err := json.Unmarshal(body, &cj); err != nil {
		return answer{}, fmt.Errorf("bad /cycle body %q: %w", body, err)
	}
	if !cj.Exists {
		return answer{bfscount.NoCycle, 0}, nil
	}
	return answer{cj.Length, cj.Count}, nil
}

func checkAnswer(g *graph.Digraph, v int, body []byte) error {
	got, err := parseAnswer(body)
	if err != nil {
		return err
	}
	if want := oracle(g, v); got != want {
		return fmt.Errorf("vertex %d: served %+v, oracle %+v", v, got, want)
	}
	return nil
}

// applyLog replays acked writes onto g. A write the oracle graph rejects
// means the bench and the daemon disagree about the edge set.
func applyLog(g *graph.Digraph, log []req) error {
	for _, r := range log {
		var err error
		if r.kind == opInsert {
			err = g.AddEdge(r.a, r.b)
		} else {
			err = g.RemoveEdge(r.a, r.b)
		}
		if err != nil {
			return fmt.Errorf("replaying acked write %v: %w", r, err)
		}
	}
	return nil
}

// verifyRAW replays the acked write log onto a copy of g, checking each
// read-after-write answer at its position, and returns the final graph.
// Mismatches are returned as errors, one per failed check.
func verifyRAW(g *graph.Digraph, log []req, checks []rawCheck) (*graph.Digraph, []error) {
	cur := g.Clone()
	var errs []error
	done := 0
	for _, c := range checks {
		if err := applyLog(cur, log[done:c.after]); err != nil {
			return cur, append(errs, err)
		}
		done = c.after
		if err := checkAnswer(cur, c.v, c.body); err != nil {
			errs = append(errs, fmt.Errorf("read-after-write: %w", err))
		}
	}
	if err := applyLog(cur, log[done:]); err != nil {
		errs = append(errs, err)
	}
	return cur, errs
}

// sampleCheck is the oracle's answers for a vertex sample, computed once
// and checked against the system after the window and after every
// restart.
type sampleCheck struct {
	vs   []int
	want []answer
}

func newSampleCheck(g *graph.Digraph, vs []int) *sampleCheck {
	s := &sampleCheck{vs: vs, want: make([]answer, len(vs))}
	for i, v := range vs {
		s.want[i] = oracle(g, v)
	}
	return s
}

// run reads every sample vertex over c, returning one error per mismatch.
func (s *sampleCheck) run(c *conn) []error {
	var errs []error
	for i, v := range s.vs {
		body, err := c.do(req{kind: opRead, a: v})
		var got answer
		if err == nil {
			got, err = parseAnswer(body)
		}
		if err == nil && got != s.want[i] {
			err = fmt.Errorf("vertex %d: served %+v, oracle %+v", v, got, s.want[i])
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("oracle sample: %w", err))
		}
	}
	return errs
}
