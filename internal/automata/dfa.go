package automata

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Determinize applies the subset construction treating transition labels as
// opaque alphabet letters (identified by their canonical keys) and returns
// the result as an NFA value that is deterministic per label: no state has
// two outgoing transitions with the same label.
//
// This is the conversion used before the universal query algorithms of
// Section 4. Because parametric labels can overlap (a wildcard and def(x);
// or use(x) and use(y) under {x↦a, y↦a}), the result may still be
// effectively nondeterministic at query time; the solver's runtime
// determinism check catches that. The automaton is left incomplete — no trap
// state is added; the solver's badstate rules (iii)/(iv) handle paths with
// no matching transition (the paper's improvement over requiring complete
// automata).
func Determinize(n *NFA) *NFA {
	t0 := time.Now()
	type setKey = string
	encode := func(set []int32) setKey {
		var b strings.Builder
		for i, s := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
		return b.String()
	}

	startSet := []int32{n.Start}
	ids := map[setKey]int32{encode(startSet): 0}
	sets := [][]int32{startSet}
	out := &NFA{Start: 0, LabelID: map[string]int32{}}
	out.Final = append(out.Final, n.Final[n.Start])
	out.Trans = append(out.Trans, nil)

	for work := []int32{0}; len(work) > 0; {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		set := sets[cur]
		// Group targets by label key.
		byLabel := map[string][]int32{}
		labelOf := map[string]*Transition{}
		var order []string
		for _, s := range set {
			for i := range n.Trans[s] {
				tr := &n.Trans[s][i]
				k := tr.Label.Key()
				if _, ok := byLabel[k]; !ok {
					order = append(order, k)
					labelOf[k] = tr
				}
				byLabel[k] = append(byLabel[k], tr.To)
			}
		}
		sort.Strings(order)
		for _, k := range order {
			targets := dedupSorted(byLabel[k])
			tk := encode(targets)
			id, ok := ids[tk]
			if !ok {
				id = int32(len(sets))
				ids[tk] = id
				sets = append(sets, targets)
				fin := false
				for _, s := range targets {
					fin = fin || n.Final[s]
				}
				out.Final = append(out.Final, fin)
				out.Trans = append(out.Trans, nil)
				work = append(work, id)
			}
			out.AddTrans(cur, labelOf[k].Label, id)
		}
	}
	out.NumStates = len(sets)
	out.BuildWall = time.Since(t0)
	return out
}

func dedupSorted(xs []int32) []int32 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// IsLabelDeterministic reports whether no state has two outgoing transitions
// with structurally equal labels — the property Determinize establishes.
func IsLabelDeterministic(n *NFA) bool {
	for _, ts := range n.Trans {
		seen := map[string]bool{}
		for _, tr := range ts {
			k := tr.Label.Key()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
	}
	return true
}
