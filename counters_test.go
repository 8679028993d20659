package rpq

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"rpq/internal/core"
	"rpq/internal/gen"
	"rpq/internal/gofront"
	"rpq/internal/graph"
	"rpq/internal/pattern"
	"rpq/internal/subst"
)

// The solver counter gate: the paper measures cost in worklist size (Tables
// 1–2, Figure 3), so these deterministic counters are compared exactly,
// where timings cannot be. The inputs below are part of the gate; changing
// any of them changes the counters and needs a regenerated golden file:
//
//	UPDATE_GOLDEN=1 go test -run TestSolverCounters .
const countersGolden = "testdata/counters.golden.json"

var (
	counterProgSpec = gen.ProgSpec{
		Name: "bench-prog", Seed: 42, Edges: 2000, Vars: 120,
		UninitFrac: 0.12, UseSites: true, EntryLoop: true,
	}
	counterUnivSpec = gen.ProgSpec{
		Name: "bench-univ", Seed: 43, Edges: 400, Vars: 30,
		UninitFrac: 0.12, UseSites: true, EntryLoop: true,
	}
	counterLTSSpec = gen.LTSSpec{
		Name: "bench-lts", Seed: 42, States: 1500, Trans: 6000,
		Actions: 8, Deadlocks: 2, InvisibleFrac: 0.2,
	}
)

const (
	dlockPattern = "_* lock(m) (!unlock(m))* lock(m)"
	closePattern = "_* close(x) (!def(x))* (close(x) | send(x) | mcall(x, _))"
	// benchmodDir is the committed real-Go module lowered by gofront.
	benchmodDir = "testdata/goprog/benchmod"
)

// counterScenario is one pinned solver run.
type counterScenario struct {
	name      string
	workload  string
	universal bool
	pat       string
	algo      core.Algo
	table     subst.TableKind
}

// counterScenarios covers the C-dataflow workload across the sequential
// variants and both table kinds, the LTS deadlock workload, the universal
// algorithms, and a real-Go module under two rpqcheck-style checks.
func counterScenarios() []counterScenario {
	dl := deadlockPattern()
	return []counterScenario{
		{"prog-bwd/basic/hash/w1", "prog-bwd", false, bwdUninitPattern, core.AlgoBasic, subst.Hash},
		{"prog-bwd/memo/hash/w1", "prog-bwd", false, bwdUninitPattern, core.AlgoMemo, subst.Hash},
		{"prog-bwd/memo/nested/w1", "prog-bwd", false, bwdUninitPattern, core.AlgoMemo, subst.Nested},
		{"prog-bwd/precomp/hash/w1", "prog-bwd", false, bwdUninitPattern, core.AlgoPrecomp, subst.Hash},
		{"prog-bwd/precomp/nested/w1", "prog-bwd", false, bwdUninitPattern, core.AlgoPrecomp, subst.Nested},
		{"prog-fwd/enum/hash/w1", "prog-fwd", false, fwdUninitPattern, core.AlgoEnum, subst.Hash},
		{"lts-deadlock/basic/hash/w1", "lts", false, dl, core.AlgoBasic, subst.Hash},
		{"lts-deadlock/precomp/hash/w1", "lts", false, dl, core.AlgoPrecomp, subst.Hash},
		{"univ-fwd/enum/hash/w1", "univ-fwd", true, fwdUninitPattern, core.AlgoEnum, subst.Hash},
		{"univ-fwd/hybrid/hash/w1", "univ-fwd", true, fwdUninitPattern, core.AlgoHybrid, subst.Hash},
		{"gofront-benchmod/dlock/memo/hash/w1", "gofront", false, dlockPattern, core.AlgoMemo, subst.Hash},
		{"gofront-benchmod/close/basic/hash/w1", "gofront", false, closePattern, core.AlgoBasic, subst.Hash},
	}
}

// counterWorkload is one pinned graph and the vertex its queries start at.
type counterWorkload struct {
	g     *graph.Graph
	start int32
}

// counterWorkloads builds the pinned graphs, keyed by counterScenario.workload.
func counterWorkloads(t *testing.T) map[string]counterWorkload {
	t.Helper()
	prog := progWorkload(t, counterProgSpec)
	univ := progWorkload(t, counterUnivSpec).fwd
	lts := ltsWorkload(t, counterLTSSpec)
	gp, err := gofront.Load([]string{benchmodDir + "/..."}, gofront.Config{Interproc: true, Workers: 1})
	if err != nil {
		t.Fatalf("gofront workload: %v", err)
	}
	return map[string]counterWorkload{
		"prog-fwd": {prog.fwd, prog.fwd.Start()},
		"prog-bwd": {prog.bwd, prog.bwdStart},
		"univ-fwd": {univ, univ.Start()},
		"lts":      {lts, lts.Start()},
		"gofront":  {gp.Graph, gp.Graph.Start()},
	}
}

// solverCounters extracts the deterministic counters of one run: identical
// on every machine and under any scheduling.
func solverCounters(res *core.Result) map[string]int64 {
	return map[string]int64{
		"worklist_inserts": int64(res.Stats.WorklistInserts),
		"reach_size":       int64(res.Stats.ReachSize),
		"substs":           int64(res.Stats.Substs),
		"enum_substs":      int64(res.Stats.EnumSubsts),
		"result_pairs":     int64(res.Stats.ResultPairs),
		"match_attempts":   res.Explain.Totals.Attempts,
		"match_hits":       res.Explain.Totals.Hits,
		"visits":           res.Explain.Totals.Visits,
		"extensions":       res.Explain.Totals.Extensions,
	}
}

// TestSolverCounters runs every pinned scenario and compares its nine
// counters exactly against the golden file. Every mismatch is reported by
// scenario and counter; a scenario missing from the golden file, or a
// golden entry no scenario produces, fails.
func TestSolverCounters(t *testing.T) {
	wls := counterWorkloads(t)
	got := map[string]map[string]int64{}
	for _, sc := range counterScenarios() {
		wl := wls[sc.workload]
		q := core.MustCompile(pattern.MustParse(sc.pat), wl.g.U)
		opts := core.Options{Algo: sc.algo, Table: sc.table, Workers: 1, Explain: true}
		solve := core.Exist
		if sc.universal {
			solve = core.Univ
		}
		res, err := solve(wl.g, wl.start, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got[sc.name] = solverCounters(res)
	}

	if update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d scenarios", len(got))
		return
	}
	raw, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]map[string]int64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", countersGolden, err)
	}
	for _, p := range diffCounters(want, got) {
		t.Error(p)
	}
}

// diffCounters lists every difference between the golden counters and the
// measured ones, one line per scenario or counter, in a stable order.
func diffCounters(want, got map[string]map[string]int64) []string {
	var problems []string
	for _, name := range sortedKeys(got) {
		w, ok := want[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: scenario missing from %s (regenerate with UPDATE_GOLDEN=1)", name, countersGolden))
			continue
		}
		g := got[name]
		for _, c := range sortedKeys(g) {
			wv, ok := w[c]
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("%s: counter %s missing from %s", name, c, countersGolden))
			case wv != g[c]:
				problems = append(problems, fmt.Sprintf("%s: counter %s = %d, golden %d", name, c, g[c], wv))
			}
		}
		for _, c := range sortedKeys(w) {
			if _, ok := g[c]; !ok {
				problems = append(problems, fmt.Sprintf("%s: golden counter %s is not measured", name, c))
			}
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: golden scenario is not run", name))
		}
	}
	return problems
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDiffCounters checks the gate's comparison on its own: identical sets
// pass, and each kind of difference yields one line naming the scenario
// and, where there is one, the counter.
func TestDiffCounters(t *testing.T) {
	golden := func() map[string]map[string]int64 {
		return map[string]map[string]int64{
			"a/basic/hash/w1": {"worklist_inserts": 100, "result_pairs": 5},
			"b/memo/hash/w1":  {"worklist_inserts": 200, "result_pairs": 7},
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(got map[string]map[string]int64)
		want   []string
	}{
		{"identical", func(map[string]map[string]int64) {}, nil},
		{"drift", func(got map[string]map[string]int64) {
			got["a/basic/hash/w1"]["worklist_inserts"] = 101
		}, []string{"a/basic/hash/w1: counter worklist_inserts = 101, golden 100"}},
		{"missing-scenario-and-counter", func(got map[string]map[string]int64) {
			got["c/enum/hash/w1"] = map[string]int64{"worklist_inserts": 1}
			delete(got["b/memo/hash/w1"], "result_pairs")
			got["b/memo/hash/w1"]["visits"] = 3
		}, []string{
			"b/memo/hash/w1: counter visits missing from " + countersGolden,
			"b/memo/hash/w1: golden counter result_pairs is not measured",
			"c/enum/hash/w1: scenario missing from " + countersGolden + " (regenerate with UPDATE_GOLDEN=1)",
		}},
		{"stale-golden", func(got map[string]map[string]int64) {
			delete(got, "a/basic/hash/w1")
		}, []string{"a/basic/hash/w1: golden scenario is not run"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := golden()
			tc.mutate(got)
			p := diffCounters(golden(), got)
			if fmt.Sprint(p) != fmt.Sprint(tc.want) {
				t.Fatalf("diffCounters =\n%q\nwant\n%q", p, tc.want)
			}
		})
	}
}
