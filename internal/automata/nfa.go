// Package automata converts parametric regular-expression patterns into
// finite automata: an ε-free NFA for existential queries (Section 3 of Liu
// et al., PLDI 2004), a DFA by subset construction over opaque transition
// labels for universal queries (Section 4), and an exactly determinized
// automaton over a concrete edge-label alphabet for the enumeration and
// hybrid algorithms.
package automata

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rpq/internal/label"
	"rpq/internal/pattern"
)

// Transition is one labeled transition ⟨s, tl, s'⟩ of an automaton; only the
// target is stored, the source being the index into the transition table.
type Transition struct {
	Label *label.CTerm
	To    int32
	// LabelID is the dense index of Label in the owning automaton's Labels,
	// set by NFA.AddTrans so the solvers need no key lookup per match.
	LabelID int32
}

// NFA is an ε-free nondeterministic finite automaton whose alphabet is
// transition labels. State 0..NumStates-1; transitions are adjacency lists.
type NFA struct {
	Start     int32
	NumStates int
	Final     []bool
	Trans     [][]Transition
	// Labels lists the distinct transition labels by key order of first
	// appearance; LabelID maps a label key to its index ("translabels" in
	// Figure 2 is len(Labels)).
	Labels  []*label.CTerm
	LabelID map[string]int32
	// BuildWall is the wall-clock time spent constructing this automaton
	// (FromPattern or Determinize); the observability layer surfaces it in
	// the compile phase of core.Stats.Phases.
	BuildWall time.Duration
}

// AddTrans appends the transition from --l--> to, interning l into Labels
// and LabelID and recording its dense index on the transition. Every
// automaton constructor adds its transitions this way; the solvers rely on
// Transition.LabelID.
func (n *NFA) AddTrans(from int32, l *label.CTerm, to int32) {
	k := l.Key()
	id, ok := n.LabelID[k]
	if !ok {
		if n.LabelID == nil {
			n.LabelID = map[string]int32{}
		}
		id = int32(len(n.Labels))
		n.LabelID[k] = id
		n.Labels = append(n.Labels, l)
	}
	n.Trans[from] = append(n.Trans[from], Transition{Label: l, To: to, LabelID: id})
}

// NumTrans returns the total number of transitions, |P| in the paper's
// complexity formulas.
func (n *NFA) NumTrans() int {
	total := 0
	for _, ts := range n.Trans {
		total += len(ts)
	}
	return total
}

// MaxLabelSize returns the largest label size, "labelsize" in Figure 2.
func (n *NFA) MaxLabelSize() int {
	m := 0
	for _, l := range n.Labels {
		if l.Size() > m {
			m = l.Size()
		}
	}
	return m
}

// AcceptsEmpty reports whether the automaton accepts the empty path.
func (n *NFA) AcceptsEmpty() bool { return n.Final[n.Start] }

// epsNFA is the intermediate Thompson automaton with ε-transitions.
type epsNFA struct {
	trans [][]Transition // nil Label means ε
	n     int
}

func (e *epsNFA) state() int32 {
	e.trans = append(e.trans, nil)
	e.n++
	return int32(e.n - 1)
}

func (e *epsNFA) edge(from, to int32, l *label.CTerm) {
	e.trans[from] = append(e.trans[from], Transition{Label: l, To: to})
}

// FromPattern compiles a pattern into an ε-free NFA over the universe u,
// interning parameters into ps. Positive top-level label alternations
// (label.KOr outside a negation) are split into parallel transitions, so the
// matcher only ever sees KOr under a negation.
func FromPattern(e pattern.Expr, u *label.Universe, ps *label.ParamSpace) (*NFA, error) {
	t0 := time.Now()
	en := &epsNFA{}
	start := en.state()
	final := en.state()
	if err := build(en, e, start, final, u, ps); err != nil {
		return nil, err
	}
	nfa := eliminateEps(en, start, final)
	nfa.BuildWall = time.Since(t0)
	return nfa, nil
}

// MustFromPattern is FromPattern that panics on error.
func MustFromPattern(e pattern.Expr, u *label.Universe, ps *label.ParamSpace) *NFA {
	n, err := FromPattern(e, u, ps)
	if err != nil {
		panic(err)
	}
	return n
}

func build(en *epsNFA, e pattern.Expr, from, to int32, u *label.Universe, ps *label.ParamSpace) error {
	switch x := e.(type) {
	case pattern.Epsilon:
		en.edge(from, to, nil)
	case *pattern.Lbl:
		c, err := label.Compile(x.Term, u, ps)
		if err != nil {
			return err
		}
		if c.Kind == label.KOr {
			// Positive label alternation: one transition per alternative.
			for _, alt := range c.Args {
				en.edge(from, to, alt)
			}
		} else {
			en.edge(from, to, c)
		}
	case *pattern.Concat:
		cur := from
		for i, it := range x.Items {
			next := to
			if i < len(x.Items)-1 {
				next = en.state()
			}
			if err := build(en, it, cur, next, u, ps); err != nil {
				return err
			}
			cur = next
		}
		if len(x.Items) == 0 {
			en.edge(from, to, nil)
		}
	case *pattern.Alt:
		for _, it := range x.Items {
			if err := build(en, it, from, to, u, ps); err != nil {
				return err
			}
		}
	case *pattern.Star:
		mid := en.state()
		en.edge(from, mid, nil)
		en.edge(mid, to, nil)
		if err := build(en, x.Sub, mid, mid, u, ps); err != nil {
			return err
		}
	case *pattern.Plus:
		mid := en.state()
		if err := build(en, x.Sub, from, mid, u, ps); err != nil {
			return err
		}
		en.edge(mid, to, nil)
		// Loop back through the body again.
		if err := build(en, x.Sub, mid, mid, u, ps); err != nil {
			return err
		}
	case *pattern.Opt:
		en.edge(from, to, nil)
		if err := build(en, x.Sub, from, to, u, ps); err != nil {
			return err
		}
	default:
		return fmt.Errorf("automata: unknown pattern node %T", e)
	}
	return nil
}

// eliminateEps converts the ε-NFA into an ε-free NFA over the reachable
// states: for each state s and each labeled transition (t, l, t') with t in
// the ε-closure of s, add (s, l, t'); s is final iff its closure contains
// the final state. Unreachable states are dropped and states renumbered.
func eliminateEps(en *epsNFA, start, final int32) *NFA {
	n := en.n
	// ε-closures by DFS.
	closure := make([][]int32, n)
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		stack := []int32{int32(s)}
		seen[s] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, tr := range en.trans[cur] {
				if tr.Label == nil && !seen[tr.To] {
					seen[tr.To] = true
					stack = append(stack, tr.To)
				}
			}
		}
		for t := 0; t < n; t++ {
			if seen[t] {
				closure[s] = append(closure[s], int32(t))
			}
		}
	}
	// Build ε-free transitions and finality.
	trans := make([][]Transition, n)
	fin := make([]bool, n)
	for s := 0; s < n; s++ {
		dedup := map[string]bool{}
		for _, c := range closure[s] {
			if c == final {
				fin[s] = true
			}
			for _, tr := range en.trans[c] {
				if tr.Label == nil {
					continue
				}
				k := tr.Label.Key() + "→" + fmt.Sprint(tr.To)
				if dedup[k] {
					continue
				}
				dedup[k] = true
				trans[s] = append(trans[s], tr)
			}
		}
	}
	// Reachability from start over labeled transitions.
	reach := make([]bool, n)
	reach[start] = true
	stack := []int32{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, tr := range trans[cur] {
			if !reach[tr.To] {
				reach[tr.To] = true
				stack = append(stack, tr.To)
			}
		}
	}
	// Renumber.
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	var order []int32
	for s := 0; s < n; s++ {
		if reach[s] {
			remap[s] = int32(len(order))
			order = append(order, int32(s))
		}
	}
	out := &NFA{
		Start:     remap[start],
		NumStates: len(order),
		Final:     make([]bool, len(order)),
		Trans:     make([][]Transition, len(order)),
		LabelID:   map[string]int32{},
	}
	for newID, old := range order {
		out.Final[newID] = fin[old]
		for _, tr := range trans[old] {
			if remap[tr.To] < 0 {
				continue
			}
			out.AddTrans(int32(newID), tr.Label, remap[tr.To])
		}
	}
	return out
}

// String renders the NFA for debugging.
func (n *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFA start=%d states=%d\n", n.Start, n.NumStates)
	for s := 0; s < n.NumStates; s++ {
		mark := " "
		if n.Final[s] {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s%3d:", mark, s)
		for _, tr := range n.Trans[s] {
			fmt.Fprintf(&b, " --%s-->%d", tr.Label.Key(), tr.To)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FinalStates returns the sorted list of final state ids.
func (n *NFA) FinalStates() []int32 {
	var out []int32
	for s, f := range n.Final {
		if f {
			out = append(out, int32(s))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
