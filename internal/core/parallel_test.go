package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rpq/internal/gen"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// parWorkload is one (graph, start, query) instance of the cross-check
// corpus.
type parWorkload struct {
	name  string
	g     *graph.Graph
	start int32
	pat   string
}

// parCorpus builds the randomized cross-check corpus: generated program
// graphs (forward and backward formulations), a random cyclic graph, and a
// tiny handcrafted graph where every vertex is an answer.
func parCorpus(t testing.TB) []parWorkload {
	var ws []parWorkload

	pg := gen.Program(gen.ProgSpec{
		Name: "par", Seed: 7, Edges: 320, Vars: 16, UninitFrac: 0.25,
		UseSites: true, EntryLoop: true,
	})
	ws = append(ws, parWorkload{"prog-fwd", pg, pg.Start(), "(!def(x))* use(x,_)"})

	// Backward formulation from after the exit() edge, as in the paper.
	rg := pg.Reverse()
	rstart := int32(-1)
	for v := 0; v < pg.NumVertices(); v++ {
		for _, e := range pg.Out(int32(v)) {
			if e.Label.Format(pg.U, nil) == "exit()" {
				rstart = e.To
			}
		}
	}
	if rstart < 0 {
		t.Fatal("generated program has no exit() edge")
	}
	ws = append(ws, parWorkload{"prog-bwd", rg, rstart, "_* use(x,l) (!def(x))* entry()"})

	// Random cyclic graph: many SCCs, dense label reuse.
	rng := rand.New(rand.NewSource(42))
	cg := graph.New()
	n := 120
	labels := []string{"def(a)", "def(b)", "def(c)", "use(a)", "use(b)", "use(c)", "nop()"}
	for i := 0; i < n; i++ {
		cg.Vertex(fmt.Sprintf("v%d", i))
	}
	cg.SetStart(0)
	for i := 0; i < 5*n; i++ {
		cg.MustAddEdgeStr(fmt.Sprintf("v%d", rng.Intn(n)), labels[rng.Intn(len(labels))], fmt.Sprintf("v%d", rng.Intn(n)))
	}
	ws = append(ws, parWorkload{"cyclic", cg, cg.Start(), "(!def(x))* use(x)"})

	hg := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 use(a) v2
edge v2 use(b) v0
edge v1 def(b) v1
`)
	ws = append(ws, parWorkload{"hand", hg, hg.Start(), "_* use(x)"})
	return ws
}

// checkWitness validates one witnessing path: it starts at v0, its steps
// chain, every step is a real graph edge, and it ends at the answer vertex.
func checkWitness(t *testing.T, g *graph.Graph, v0 int32, p Pair) {
	t.Helper()
	w := p.Witness
	if len(w) == 0 {
		if p.Vertex != v0 {
			t.Fatalf("empty witness for non-start vertex %d", p.Vertex)
		}
		return
	}
	if w[0].From != v0 {
		t.Fatalf("witness starts at %d, want %d", w[0].From, v0)
	}
	if w[len(w)-1].To != p.Vertex {
		t.Fatalf("witness ends at %d, want %d", w[len(w)-1].To, p.Vertex)
	}
	for i, st := range w {
		if i > 0 && st.From != w[i-1].To {
			t.Fatalf("witness step %d does not chain: %d -> %d", i, w[i-1].To, st.From)
		}
		found := false
		for _, ge := range g.Out(st.From) {
			if ge.To == st.To && ge.Label.Key() == st.Label.Key() {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("witness step %d is not a graph edge: %d -%s-> %d",
				i, st.From, st.Label, st.To)
		}
	}
}

// exactStats clears the fields of s that measure the machine rather than
// the run (wall times, CPU time, allocation deltas), leaving every
// deterministic counter.
func exactStats(s Stats) Stats {
	s.CPUTime, s.AllocBytes, s.Phases = 0, 0, PhaseTimings{}
	return s
}

// TestParallelCrossCheck runs every existential algorithm with both table
// kinds, SCC ordering on and off, and witnesses on and off, across the
// randomized corpus, at 2 and 4 workers against the sequential run. The
// worklist algorithms ignore Workers, so their whole Result — pairs,
// witness paths, every deterministic Stats counter, and the Explain
// profile — must equal the sequential one. The enumeration fan-out must
// return the sequential pairs and deterministic stats.
func TestParallelCrossCheck(t *testing.T) {
	for _, wl := range parCorpus(t) {
		t.Run(wl.name, func(t *testing.T) {
			q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
			for _, algo := range []Algo{AlgoBasic, AlgoMemo, AlgoPrecomp, AlgoEnum} {
				for _, tk := range []subst.TableKind{subst.Hash, subst.Nested} {
					for _, scc := range []bool{false, true} {
						for _, wit := range []bool{false, true} {
							if algo == AlgoEnum && (scc || wit) {
								continue // enumeration ignores both
							}
							opts := Options{Algo: algo, Table: tk, SCCOrder: scc, Witnesses: wit, Explain: wit}
							name := fmt.Sprintf("%v/%v/scc=%v/wit=%v", algo, tk, scc, wit)
							ref, err := Exist(wl.g, wl.start, q, opts)
							if err != nil {
								t.Fatalf("%s sequential: %v", name, err)
							}
							refPairs := ref.Format(wl.g, q)
							for _, workers := range []int{2, 4} {
								popts := opts
								popts.Workers = workers
								res, err := Exist(wl.g, wl.start, q, popts)
								if err != nil {
									t.Fatalf("%s workers=%d: %v", name, workers, err)
								}
								if got := res.Format(wl.g, q); got != refPairs {
									t.Fatalf("%s workers=%d pairs differ\nsequential:\n%s\nparallel:\n%s",
										name, workers, refPairs, got)
								}
								if algo == AlgoEnum {
									if res.Stats.WorklistInserts != ref.Stats.WorklistInserts ||
										res.Stats.ReachSize != ref.Stats.ReachSize ||
										res.Stats.MatchCalls != ref.Stats.MatchCalls ||
										res.Stats.EnumSubsts != ref.Stats.EnumSubsts ||
										res.Stats.ResultPairs != ref.Stats.ResultPairs ||
										res.Stats.DeterminismOK != ref.Stats.DeterminismOK {
										t.Fatalf("%s workers=%d deterministic stats differ\nsequential: %+v\nparallel:   %+v",
											name, workers, ref.Stats, res.Stats)
									}
									continue
								}
								if got, want := exactStats(res.Stats), exactStats(ref.Stats); got != want {
									t.Fatalf("%s workers=%d stats differ\nsequential: %+v\nworkers:    %+v",
										name, workers, want, got)
								}
								if !reflect.DeepEqual(res.Pairs, ref.Pairs) {
									t.Fatalf("%s workers=%d pairs or witness paths differ", name, workers)
								}
								if !reflect.DeepEqual(res.Explain, ref.Explain) {
									t.Fatalf("%s workers=%d explain profiles differ", name, workers)
								}
								if wit {
									for _, p := range res.Pairs {
										checkWitness(t, wl.g, wl.start, p)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestEnumWorkersClamped is the regression test for the unbounded
// enumeration fan-out: each worker allocates a |V|·|S| scratch array, so a
// request for thousands of workers must be clamped to the usable CPUs (and
// the substitution count) while still returning the sequential answers.
func TestEnumWorkersClamped(t *testing.T) {
	wl := parCorpus(t)[0]
	q := MustCompile(pattern.MustParse(wl.pat), wl.g.U)
	ref, err := Exist(wl.g, wl.start, q, Options{Algo: AlgoEnum})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exist(wl.g, wl.start, q, Options{Algo: AlgoEnum, Workers: 4096, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Format(wl.g, q), ref.Format(wl.g, q); got != want {
		t.Fatalf("pairs differ\nsequential:\n%s\nworkers=4096:\n%s", want, got)
	}
	if res.Stats.WorklistInserts != ref.Stats.WorklistInserts || res.Stats.EnumSubsts != ref.Stats.EnumSubsts {
		t.Fatalf("deterministic stats differ\nsequential:   %+v\nworkers=4096: %+v", ref.Stats, res.Stats)
	}
	if n, max := len(res.Explain.Workers), runtime.GOMAXPROCS(0); n > max {
		t.Fatalf("workers=4096 ran %d enumeration workers, want <= GOMAXPROCS (%d)", n, max)
	}
	if w := enumWorkers(4096, 3); w > 3 {
		t.Fatalf("enumWorkers(4096, 3) = %d, want <= 3", w)
	}
}

// TestPackPairBoundary is the regression test for the int32 ⟨v,s⟩ packing
// overflow: products beyond 2³¹ must round-trip through the 64-bit packing
// without collision, and the dense-base constructors must reject dimensions
// the arrays cannot hold.
func TestPackPairBoundary(t *testing.T) {
	// Near-boundary synthetic case: |V|·|S| just above 2³¹. int32 packing
	// (v*states+s) would wrap negative here.
	verts, states := int32(214_748_365), 10 // verts*states = 2³¹ + …
	top := packPair(verts-1, int32(states-1), states)
	if top != int64(verts-1)*int64(states)+int64(states-1) {
		t.Fatalf("packPair = %d", top)
	}
	if int64(int32(top)) == top {
		t.Fatalf("test is not exercising the overflow region (top = %d)", top)
	}
	v, s := unpackPair(top, states)
	if v != verts-1 || s != int32(states-1) {
		t.Fatalf("unpackPair(packPair) = (%d, %d), want (%d, %d)", v, s, verts-1, states-1)
	}
	// Distinct pairs around the old wrap point stay distinct.
	seen := map[int64]bool{}
	for dv := int32(-2); dv <= 2; dv++ {
		for ds := int32(0); ds < int32(states); ds++ {
			p := packPair(verts-3+dv, ds, states)
			if seen[p] {
				t.Fatalf("collision at (%d, %d)", verts-3+dv, ds)
			}
			seen[p] = true
		}
	}

	if err := checkDenseBase(int(verts), states); err == nil {
		t.Fatal("checkDenseBase accepted |V|·|S| > 2³¹")
	} else if !errors.Is(err, subst.ErrCapacity) {
		t.Fatalf("checkDenseBase error %v is not subst.ErrCapacity", err)
	}
	if err := checkDenseBase(1000, 10); err != nil {
		t.Fatalf("checkDenseBase rejected a small base: %v", err)
	}

	if _, err := newTripleSet(subst.Hash, int(verts), states); !errors.Is(err, subst.ErrCapacity) {
		t.Fatalf("newTripleSet error = %v, want ErrCapacity", err)
	}
	if _, err := newTripleSet(subst.Nested, int(verts), states); !errors.Is(err, subst.ErrCapacity) {
		t.Fatalf("newTripleSet(Nested) error = %v, want ErrCapacity", err)
	}
}

// TestEnumEpochReset checks the epoch-counter reset agrees with the eager
// clear, including across a forced epoch wraparound.
func TestEnumEpochReset(t *testing.T) {
	g := graph.MustReadString(`
start v0
edge v0 def(a) v1
edge v1 use(a) v2
edge v2 use(b) v0
`)
	q := MustCompile(pattern.MustParse("(!def(x))* use(x)"), g.U)
	run := func() string {
		res, err := Exist(g, g.Start(), q, Options{Algo: AlgoEnum})
		if err != nil {
			t.Fatal(err)
		}
		return res.Format(g, q)
	}
	epoch := run()
	enumEagerClear = true
	eager := run()
	enumEagerClear = false
	if epoch != eager {
		t.Fatalf("epoch reset answers differ from eager clear:\n%s\nvs\n%s", epoch, eager)
	}
	// Wraparound: reset at the max epoch must clear and restart at 1.
	es, err := newEnumState(g, q.NFA)
	if err != nil {
		t.Fatal(err)
	}
	es.epoch = ^uint32(0)
	es.seen[0] = es.epoch // visited in the current epoch
	es.reset()
	if es.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", es.epoch)
	}
	if es.seen[0] == es.epoch {
		t.Fatal("stale visit survived the wraparound clear")
	}
}
