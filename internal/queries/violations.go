package queries

import (
	"fmt"

	"rpq/internal/automata"
	"rpq/internal/core"
	"rpq/internal/label"
	"rpq/internal/pattern"
)

// ViolationQuery implements the Section 5.4 usability extension: the user
// specifies a universal per-resource discipline — e.g. operations on a file
// f must follow (open(f) (access(f))* close(f))*, with unrelated operations
// allowed anywhere — and a single merged existential query is generated that
// finds every kind of violation at once.
//
// Construction: the discipline pattern is compiled and determinized over its
// own (opaque) label alphabet. Each automaton state receives a self-loop
// labeled with the negated alternation of all discipline labels, skipping
// operations the discipline does not mention. A fresh error state (the only
// final state) absorbs every discipline operation that has no transition
// from its state — those are exactly the out-of-order operations. If
// withExit is set, an exit() edge from any non-final discipline state also
// goes to the error state, catching resources left in an incomplete state at
// procedure exit (e.g. files never closed).
//
// The result pairs ⟨v, θ⟩ of the generated query identify the program point
// just after a violating operation (or the exit) and the resource bound by
// θ.
func ViolationQuery(discipline pattern.Expr, u *label.Universe, withExit bool) (*core.Query, error) {
	ps := &label.ParamSpace{}
	nfa, err := automata.FromPattern(discipline, u, ps)
	if err != nil {
		return nil, err
	}
	dfa := automata.Determinize(nfa)
	if len(dfa.Labels) == 0 {
		return nil, fmt.Errorf("queries: discipline pattern has no labels")
	}
	for _, tl := range dfa.Labels {
		if tl.Kind != label.KApp {
			return nil, fmt.Errorf("queries: discipline labels must be plain constructor applications, got %s", tl.Format(u, ps))
		}
	}

	errState := int32(dfa.NumStates)
	out := &automata.NFA{
		Start:     dfa.Start,
		NumStates: dfa.NumStates + 1,
		Final:     make([]bool, dfa.NumStates+1),
		Trans:     make([][]automata.Transition, dfa.NumStates+1),
		LabelID:   map[string]int32{},
	}
	out.Final[errState] = true

	skip := label.NegOr(dfa.Labels...)
	exitLbl, err := label.Compile(label.App("exit"), u, ps)
	if err != nil {
		return nil, err
	}

	for s := 0; s < dfa.NumStates; s++ {
		present := map[string]bool{}
		for _, tr := range dfa.Trans[s] {
			out.AddTrans(int32(s), tr.Label, tr.To)
			present[tr.Label.Key()] = true
		}
		// Unrelated operations are allowed anywhere.
		out.AddTrans(int32(s), skip, int32(s))
		// A discipline operation with no transition here is a violation.
		for _, tl := range dfa.Labels {
			if !present[tl.Key()] {
				out.AddTrans(int32(s), tl, errState)
			}
		}
		// Ending in the middle of the discipline is a violation.
		if withExit && !dfa.Final[s] {
			out.AddTrans(int32(s), exitLbl, errState)
		}
	}
	return &core.Query{Expr: discipline, U: u, PS: ps, NFA: out}, nil
}
