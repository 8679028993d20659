package core

import (
	"fmt"
	"testing"

	"rpq/internal/gen"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// TestExistAllocBudget bounds heap allocations per worklist insert on the
// forward uninitialized-use query over the Table 1 "uniq" program, for
// every worklist variant and both tables. The paper measures cost per
// worklist insert (Figure 3); matching, merging and substitution interning
// run once or more per insert and must not allocate, so what remains is
// table growth and the result, well under one object per insert.
func TestExistAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations; the budget holds only without it")
	}
	const budget = 0.5
	g := gen.Program(gen.Table1Specs()[3])
	q := MustCompile(pattern.MustParse("(!def(x))* use(x,_)"), g.U)
	for _, algo := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp} {
		for _, table := range []subst.TableKind{subst.Hash, subst.Nested} {
			t.Run(fmt.Sprintf("%v/%v", algo, table), func(t *testing.T) {
				opts := Options{Algo: algo, Table: table}
				res, err := Exist(g, g.Start(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := Exist(g, g.Start(), q, opts); err != nil {
						t.Fatal(err)
					}
				})
				per := allocs / float64(res.Stats.WorklistInserts)
				t.Logf("%.0f allocs for %d inserts: %.3f per insert", allocs, res.Stats.WorklistInserts, per)
				if per > budget {
					t.Errorf("%.3f allocations per worklist insert, budget %.1f", per, budget)
				}
			})
		}
	}
}
