package core

import (
	"fmt"
	"testing"

	"rpq/internal/gen"
	"rpq/internal/pattern"
)

// BenchmarkExistWorkers measures the enumeration fan-out — the only path
// Options.Workers changes — against the sequential enumeration on the
// forward uninitialized-uses query over the "iburg" Table 1 program;
// workers=1 is the sequential baseline.
func BenchmarkExistWorkers(b *testing.B) {
	g := gen.Program(gen.Table1Specs()[6])
	q := MustCompile(pattern.MustParse("(!def(x))* use(x,_)"), g.U)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Exist(g, g.Start(), q, Options{Algo: AlgoEnum, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// BenchmarkEnumReset measures the epoch-counter O(1) per-substitution reset
// of the enumeration algorithm against the old O(|V|·|S|) eager clear it
// replaced. The workload is the regime the fix targets: a graph much larger
// than the region any one ground run reaches (here, a program fragment
// embedded in a large graph), so the per-substitution clear of the full
// |V|·|S| array dominated the traversal.
func BenchmarkEnumReset(b *testing.B) {
	g := gen.Program(gen.ProgSpec{
		Name: "enumbench", Seed: 13, Edges: 600, Vars: 80, UninitFrac: 0.3,
		UseSites: true, EntryLoop: true,
	})
	// Vertices outside the reachable region: the ground runs never touch
	// them, but the eager clear pays for them on every substitution.
	for i := 0; i < 200_000; i++ {
		g.Vertex(fmt.Sprintf("iso%d", i))
	}
	q := MustCompile(pattern.MustParse("(!def(x))* use(x,_)"), g.U)
	for _, eager := range []bool{false, true} {
		name := "epoch"
		if eager {
			name = "eager-clear"
		}
		b.Run(name, func(b *testing.B) {
			enumEagerClear = eager
			defer func() { enumEagerClear = false }()
			for i := 0; i < b.N; i++ {
				if _, err := Exist(g, g.Start(), q, Options{Algo: AlgoEnum}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
