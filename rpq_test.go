package rpq

import (
	"errors"
	"strings"
	"testing"
)

func figure1Graph(t *testing.T) *Graph {
	t.Helper()
	g, err := ReadGraphString(`
start v1
edge v1 def(a) v2
edge v2 use(a) v3
edge v3 def(a) v4
edge v4 use(b) v5
edge v5 def(b) v6
edge v6 use(a) v7
edge v6 use(c) v7
`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func answers(res *Result) []string {
	var out []string
	for _, a := range res.Answers {
		out = append(out, a.String())
	}
	return out
}

func TestQuickstartExist(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	res, err := g.Exist(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(answers(res), "; ")
	if got != "v5 {x↦b}; v7 {x↦c}" {
		t.Fatalf("answers = %q", got)
	}
	if res.Stats.WorklistInserts == 0 || !res.Stats.DeterminismOK {
		t.Errorf("stats = %+v", res.Stats)
	}
}

// TestAnswerBindingsIndependent appends to one answer's bindings and checks
// that the next answer's are unchanged: answers share one backing slice for
// their bindings, each capped at its own end.
func TestAnswerBindingsIndependent(t *testing.T) {
	g := figure1Graph(t)
	res, err := g.Exist(MustParsePattern("(!def(x))* use(x)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %v, want two", answers(res))
	}
	next := res.Answers[1].String()
	res.Answers[0].Bindings = append(res.Answers[0].Bindings, Binding{Param: "y", Symbol: "z"})
	if got := res.Answers[1].String(); got != next {
		t.Fatalf("appending to answer 0 changed answer 1: %q, was %q", got, next)
	}
	if got := res.Answers[0].String(); got != "v5 {x↦b, y↦z}" {
		t.Errorf("answer 0 after append = %q", got)
	}
}

func TestAllAlgorithmsAgreeOnPublicAPI(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("(!def(x))* use(x)")
	ref := ""
	for i, algo := range []Algorithm{Auto, Basic, Memo, Precompute} {
		res, err := g.Exist(p, &Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		s := strings.Join(answers(res), "; ")
		if i == 0 {
			ref = s
		} else if s != ref {
			t.Errorf("%v: %q != %q", algo, s, ref)
		}
	}
	// Enumeration returns full substitutions; all its answers must extend
	// some minimal answer at the same vertex.
	res, err := g.Exist(p, &Options{Algorithm: Enumerate})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if a.Vertex != "v5" && a.Vertex != "v7" {
			t.Errorf("enumeration answer at unexpected vertex %s", a.Vertex)
		}
	}
	// Table kinds agree too.
	res2, err := g.Exist(p, &Options{Table: NestedArrays})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(answers(res2), "; ") != ref {
		t.Errorf("nested arrays disagree")
	}
}

func TestBackwardQuery(t *testing.T) {
	g, err := FromMiniC(`
func main() {
	int a, b;
	a = b;
	b = a;
}
`, MiniCConfig{UseSites: true, EntryLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	p := MustParsePattern("_* use(x,l) (!def(x))* entry()")
	res, err := g.Exist(p, &Options{Backward: true})
	if err != nil {
		t.Fatal(err)
	}
	foundB := false
	for _, a := range res.Answers {
		for _, b := range a.Bindings {
			if b.Param == "x" && b.Symbol == "b" {
				foundB = true
			}
			if b.Param == "x" && b.Symbol == "a" {
				t.Errorf("a reported uninitialized")
			}
		}
	}
	if !foundB {
		t.Errorf("backward query missed b; answers: %v", answers(res))
	}
}

func TestUniversalAutoFallsBackToHybrid(t *testing.T) {
	g, err := FromMiniC(`
func main() {
	int a, b, c;
	a = 1;
	b = 2;
	c = a + b;
	c = a + b;
}
`, MiniCConfig{ExpLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	p := MustParsePattern("_* exp(x,op,y) (!(def(x)|def(y)))*")
	// Auto must succeed via hybrid fallback despite nondeterminism.
	res, err := g.Universal(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Answers {
		s := a.String()
		if strings.Contains(s, "x↦a") && strings.Contains(s, "y↦b") {
			found = true
		}
	}
	if !found {
		t.Errorf("a+b not available anywhere: %v", answers(res))
	}
	// Explicit Basic must report nondeterminism.
	if _, err := g.Universal(p, &Options{Algorithm: Basic}); !errors.Is(err, ErrNondeterministic) {
		t.Errorf("explicit basic universal: err = %v, want ErrNondeterministic", err)
	}
}

func TestRunAnalysisCatalog(t *testing.T) {
	if len(Analyses()) < 15 {
		t.Fatalf("catalog too small")
	}
	g, err := FromMiniC(`
func main() {
	int a, b;
	a = 1;
	b = a + 1;
	open(f);
	seteuid(1);
	close(f);
}
`, MiniCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalysisByName("setuid-security")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.RunAnalysis(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("setuid-security answers = %v", answers(res))
	}
	// Backward catalog analysis runs without manual reversal.
	lv, _ := AnalysisByName("live-variables")
	if _, err := g.RunAnalysis(lv, nil); err != nil {
		t.Fatalf("live-variables: %v", err)
	}
	if _, err := AnalysisByName("nope"); err == nil {
		t.Fatal("unknown analysis accepted")
	}
}

func TestViolationsAPI(t *testing.T) {
	g, err := FromMiniC(`
func main() {
	open(f);
	close(f);
	access(f);
}
`, MiniCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Violations("(open(f) (access(f))* close(f))*", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatalf("access-after-close not reported")
	}
}

func TestFromAUT(t *testing.T) {
	aut := "des (0, 2, 3)\n(0, \"a\", 1)\n(1, \"i\", 2)\n"
	g, err := FromAUT(strings.NewReader(aut), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 5 {
		t.Fatalf("existential transform: %d/%d", g.NumVertices(), g.NumEdges())
	}
	gu, err := FromAUT(strings.NewReader(aut), true)
	if err != nil {
		t.Fatal(err)
	}
	if gu.NumVertices() != 6 || gu.NumEdges() != 5 {
		t.Fatalf("universal transform: %d/%d", gu.NumVertices(), gu.NumEdges())
	}
	if _, err := FromAUT(strings.NewReader("garbage"), false); err == nil {
		t.Fatal("bad AUT accepted")
	}
}

func TestGraphRoundTripAndAccessors(t *testing.T) {
	g := NewGraph()
	g.MustAddEdge("a", "f(x)", "b")
	g.SetStart("a")
	if g.Start() != "a" || g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Fatalf("accessors broken")
	}
	back, err := ReadGraphString(g.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != g.String() {
		t.Fatalf("round trip differs")
	}
	if err := g.AddEdge("a", "f(", "b"); err == nil {
		t.Fatal("bad label accepted")
	}
	rev := g.Reverse()
	if rev.NumEdges() != 1 {
		t.Fatal("reverse lost edges")
	}
}

func TestOptionsValidation(t *testing.T) {
	g := figure1Graph(t)
	p := MustParsePattern("_*")
	if _, err := g.Exist(p, &Options{Start: "nope"}); err == nil {
		t.Fatal("unknown start vertex accepted")
	}
	if _, err := g.Exist(p, &Options{Algorithm: Hybrid}); err == nil {
		t.Fatal("hybrid existential accepted")
	}
	g2 := NewGraph()
	g2.MustAddEdge("a", "f()", "b")
	if _, err := g2.Exist(p, nil); err == nil {
		t.Fatal("query without start vertex accepted")
	}
	if _, err := g2.Exist(p, &Options{Start: "b"}); err != nil {
		t.Fatalf("explicit start rejected: %v", err)
	}
}

func TestPatternAccessors(t *testing.T) {
	p := MustParsePattern("_* use(x,l) (!def(x))* entry()")
	ps := p.Params()
	if len(ps) != 2 || ps[0] != "l" || ps[1] != "x" {
		t.Fatalf("Params = %v", ps)
	}
	if _, err := ParsePattern("(((("); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestAnswerString(t *testing.T) {
	a := Answer{Vertex: "v", Bindings: []Binding{{"x", "a"}, {"y", "b"}}}
	if a.String() != "v {x↦a, y↦b}" {
		t.Fatalf("Answer.String() = %q", a.String())
	}
}
