package gofront

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

const fixtures = "../../testdata/goprog"

func load(t *testing.T, dir string, cfg Config) *Program {
	t.Helper()
	p, err := Load([]string{filepath.Join(fixtures, dir)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkGolden compares got against testdata/name, rewriting the file first
// when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch (regen with UPDATE_GOLDEN=1)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestShapesGolden pins the exact lowering of every statement form against
// a committed dump. Regenerate with UPDATE_GOLDEN=1.
func TestShapesGolden(t *testing.T) {
	checkGolden(t, "shapes.golden", load(t, "shapes", Config{}).DebugDump())
}

// TestInterprocGolden pins the whole interprocedural graph of benchmod —
// every CFG edge plus the call/ret/go links, in vertex-id order — and,
// after it, the interning order of vertices, labels, constructors and
// symbols, so no id of the linked program can drift. Regenerate with
// UPDATE_GOLDEN=1.
func TestInterprocGolden(t *testing.T) {
	p := load(t, "benchmod/...", Config{Interproc: true})
	checkGolden(t, "benchmod_interproc.golden", p.DebugDump()+internOrder(p))
}

// internOrder lists a program's interners in id order.
func internOrder(p *Program) string {
	g := p.Graph
	var b strings.Builder
	b.WriteString("# vertices\n")
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		b.WriteString(g.VertexName(v) + "\n")
	}
	b.WriteString("# labels\n")
	for _, c := range g.Labels() {
		b.WriteString(fmtLabel(c, g) + "\n")
	}
	b.WriteString("# ctors\n" + strings.Join(g.U.Ctors.Names(), "\n") + "\n")
	b.WriteString("# syms\n" + strings.Join(g.U.Syms.Names(), "\n") + "\n")
	return b.String()
}

// TestDeterministicAcrossWorkers asserts byte-identical graphs for every
// worker count, for the intraprocedural program and the linked program
// derived from it: the merge order is the contract, not the scheduling.
func TestDeterministicAcrossWorkers(t *testing.T) {
	dirs := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	dumps := func(w int) [2]string {
		p, err := Load(dirs, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		lk := p.Linked()
		return [2]string{p.DebugDump() + internOrder(p), lk.DebugDump() + internOrder(lk)}
	}
	want := dumps(1)
	for _, w := range []int{2, 3, 8} {
		got := dumps(w)
		for i, name := range []string{"intraprocedural", "linked"} {
			if got[i] != want[i] {
				t.Errorf("workers=%d produced a different %s graph (len %d vs %d)", w, name, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestLinkedFromOneLowering pins the one-lowering contract: Linked derives
// exactly the program Load builds with Interproc, and leaves the
// intraprocedural program it came from — graph and universe — exactly
// what a standalone intraprocedural load builds. The universe matters
// beyond the dump: its symbol count sizes the substitution tables and
// Estimate, so link-only names such as ret must not leak into it.
func TestLinkedFromOneLowering(t *testing.T) {
	dirs := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	load := func(cfg Config) *Program {
		t.Helper()
		p, err := Load(dirs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := load(Config{})
	lk := base.Linked()
	intra, inter := load(Config{}), load(Config{Interproc: true})

	// internOrder covers U.Ctors.Names() and U.Syms.Names().
	if got, want := base.DebugDump()+internOrder(base), intra.DebugDump()+internOrder(intra); got != want {
		t.Errorf("base program differs from a standalone intraprocedural load:\n%s", firstDiff(got, want))
	}
	if slices.Contains(base.Graph.U.Ctors.Names(), "ret") {
		t.Errorf("base universe gained the link-only ret constructor")
	}
	if got, want := lk.DebugDump()+internOrder(lk), inter.DebugDump()+internOrder(inter); got != want {
		t.Errorf("Linked differs from Load with Interproc:\n%s", firstDiff(got, want))
	}
	if base.Config.Interproc || !lk.Config.Interproc || inter.Linked() != inter {
		t.Errorf("Config.Interproc: base %v, linked %v; Linked of a linked program must return it",
			base.Config.Interproc, lk.Config.Interproc)
	}
	if _, ok := lk.Location("benchmod.main.n1"); !ok {
		t.Errorf("linked program lost the source locations")
	}
}

// firstDiff renders the first differing line of two dumps.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestParallelLoadRace drives concurrent Loads to let -race inspect the
// worker fan-out.
func TestParallelLoadRace(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Load([]string{filepath.Join(fixtures, "benchmod") + "/..."},
				Config{Interproc: true, Workers: 4})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestInterprocLinks(t *testing.T) {
	p, err := Load([]string{filepath.Join(fixtures, "benchmod") + "/..."},
		Config{Interproc: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dump := p.DebugDump()
	for _, want := range []string{
		// main calls across packages; call edge enters the callee's entry.
		"-call(benchmod/store.New)-> benchmod/store.New.entry",
		"-ret(benchmod/store.New)->",
		// goroutine launch links entry-only.
		"-go(benchmod.produce)-> benchmod.produce.entry",
		// the pipeline worker closure is reachable from its go statement.
		"-go(benchmod/pipeline.Run.func1)-> benchmod/pipeline.Run.func1.entry",
		// deferred s.Close() at main's exit is a close effect on s.
		"close(benchmod.main.s)",
		// every function hangs off the synthetic root.
		"root -entry(benchmod/pipeline.weight)->",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("interproc dump missing %q", want)
		}
	}
	if _, ok := p.Func("benchmod/store.Store.Put"); !ok {
		t.Errorf("method Put not registered")
	}
}

func TestPositions(t *testing.T) {
	p := load(t, "uninit", Config{})
	// The fixture sits inside this repository's module, so the module path
	// qualifies the package.
	fi, ok := p.Func("rpq/testdata/goprog/uninit.Report")
	if !ok {
		t.Fatalf("Report not found; funcs: %v", names(p))
	}
	loc, ok := p.Location(fi.Entry)
	if !ok {
		t.Fatal("no location for Report entry")
	}
	if filepath.Base(loc.File) != "uninit.go" || loc.Line != 9 {
		t.Errorf("Report entry at %s, want uninit.go:9 (the declaration name)", loc)
	}
	src, ok := p.Source(loc.File)
	if !ok || !strings.Contains(src, "package uninit") {
		t.Errorf("source for %s not retained", loc.File)
	}
}

func names(p *Program) []string {
	var out []string
	for _, f := range p.Funcs {
		out = append(out, f.Name)
	}
	return out
}

func TestAllows(t *testing.T) {
	p := load(t, "uninit", Config{})
	file := ""
	for f := range p.files {
		file = f
	}
	// The //rpqcheck:allow uninit-use sits on the `return n` line of
	// Allowed (line 43).
	if !p.Allowed(file, 43, "uninit-use") {
		t.Errorf("line 43 should allow uninit-use")
	}
	if p.Allowed(file, 43, "double-lock") {
		t.Errorf("line 43 must not allow double-lock")
	}
	if p.Allowed(file, 10, "uninit-use") {
		t.Errorf("line 10 has no allow comment")
	}
}

// TestLoadSource covers the in-memory path used by the service loader,
// including txtar splitting and module-path qualification.
func TestLoadSource(t *testing.T) {
	body := `-- go.mod --
module demo

-- a.go --
package main

func main() {
	helper()
}

-- util/u.go --
package util

func Twice(x int) int { return x + x }
-- b.go --
package main

func helper() {}
`
	files := SplitSource(body)
	if len(files) != 4 {
		t.Fatalf("SplitSource found %d files, want 4", len(files))
	}
	p, err := LoadSource(files, Config{Interproc: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Func("demo.main"); !ok {
		t.Errorf("demo.main missing; funcs: %v", names(p))
	}
	if _, ok := p.Func("demo/util.Twice"); !ok {
		t.Errorf("demo/util.Twice missing; funcs: %v", names(p))
	}
	if !strings.Contains(p.DebugDump(), "-call(demo.helper)-> demo.helper.entry") {
		t.Errorf("intra-package call not linked")
	}

	single := SplitSource("package solo\n\nfunc F() {}\n")
	if len(single) != 1 || single["main.go"] == "" {
		t.Fatalf("plain body should become main.go, got %v", single)
	}
	p2, err := LoadSource(single, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p2.Func("solo.F"); !ok {
		t.Errorf("solo.F missing; funcs: %v", names(p2))
	}
}

// TestLoadSourceSkipsTests pins LoadSource to Load's file selection: a
// _test.go entry is lowered only under IncludeTests.
func TestLoadSourceSkipsTests(t *testing.T) {
	files := SplitSource(`-- go.mod --
module m

-- a.go --
package m

func A() {}

-- a_test.go --
package m

func TestB() {}
`)
	for _, include := range []bool{false, true} {
		p, err := LoadSource(files, Config{IncludeTests: include})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Func("m.A"); !ok {
			t.Errorf("IncludeTests=%v: m.A missing; funcs: %v", include, names(p))
		}
		if _, ok := p.Func("m.TestB"); ok != include {
			t.Errorf("IncludeTests=%v: m.TestB lowered = %v; funcs: %v", include, ok, names(p))
		}
		if _, ok := p.Source("a_test.go"); ok != include {
			t.Errorf("IncludeTests=%v: a_test.go retained = %v", include, ok)
		}
	}
	if len(files) != 3 {
		t.Errorf("LoadSource modified its input: %d files left", len(files))
	}
}

// TestEdgeCaseLowering spot-checks tricky statement forms straight from
// source snippets.
func TestEdgeCaseLowering(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "shadowing gets distinct symbols",
			src: `package p
func F() int {
	x := 1
	{
		x := 2
		_ = x
	}
	return x
}`,
			want: []string{"def(p.F.x)", "def(p.F.x#2)", "use(p.F.x#2)", "use(p.F.x)"},
		},
		{
			name: "redeclaration via := reuses the symbol",
			src: `package p
func F() (int, int) {
	a, err := G()
	b, err := G()
	_ = err
	return a, b
}
func G() (int, int) { return 0, 0 }`,
			want: []string{"def(p.F.err)"},
		},
		{
			name: "method value receiver is a use",
			src: `package p
type T struct{}
func (t T) M() {}
func F(t T) {
	f := t.M
	f()
}`,
			want: []string{"use(p.F.t.M)", "def(p.F.f)", "call(p.F.f)"},
		},
		{
			name: "closure captures enclosing variable",
			src: `package p
func F() {
	n := 0
	go func() {
		n++
	}()
}`,
			// The literal's body increments the *captured* n: the def inside
			// func1 carries the parent's symbol.
			want: []string{"p.F.func1.entry -def(p.F.n)", "go(p.F.func1)-> p.F.func1.entry"},
		},
		{
			name: "augmented assignment is write-only",
			src: `package p
func F(n int) int {
	var s int
	s += n
	return s
}`,
			want: []string{"decl(p.F.s)", "use(p.F.n)", "def(p.F.s)", "use(p.F.s)"},
		},
		{
			name: "channel receive emits use and recv",
			src: `package p
func F(ch chan int) int {
	v := <-ch
	return v
}`,
			want: []string{"use(p.F.ch)", "recv(p.F.ch)", "def(p.F.v)"},
		},
		{
			name: "panic runs defers and leaves",
			src: `package p
func F(mu interface{ Unlock() }) {
	defer mu.Unlock()
	panic("boom")
}`,
			want: []string{"defer(unlock:p.F.mu,p.F.d1)", "call(panic)", "unlock(p.F.mu)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := LoadSource(map[string]string{"x.go": tc.src}, Config{Interproc: true})
			if err != nil {
				t.Fatal(err)
			}
			dump := p.DebugDump()
			at := 0
			for _, w := range tc.want {
				i := strings.Index(dump[at:], w)
				if i < 0 {
					t.Fatalf("dump missing %q (in order) after offset %d:\n%s", w, at, dump)
				}
				at += i + len(w)
			}
		})
	}
}

// TestEntryExitShape asserts the per-function frame: root entry edge, defs
// for params at entry, exit(f) edge out of the return join.
func TestEntryExitShape(t *testing.T) {
	p, err := LoadSource(map[string]string{"x.go": `package p
func Add(a, b int) (sum int) {
	sum = a + b
	return
}`}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dump := p.DebugDump()
	for _, want := range []string{
		"root -entry(p.Add)-> p.Add.entry",
		"def(p.Add.a)", "def(p.Add.b)", "def(p.Add.sum)",
		"p.Add.ret -exit(p.Add)-> p.Add.exit",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestDiscoverSkipsNestedModules pins the go tool's pattern semantics: a
// /... walk covers the root's packages but stops at a subdirectory holding
// its own go.mod.
func TestDiscoverSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n")
	write("a/a.go", "package a\n")
	write("nested/go.mod", "module n\n")
	write("nested/b.go", "package b\n")
	files, err := discover([]string{root + "/..."}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Base(files[0]) != "a.go" {
		t.Fatalf("discover = %v, want only a/a.go", files)
	}
}

// BenchmarkLoad lowers benchmod once and derives its linked program: the
// front-end work gocheck.Run does before any check runs.
func BenchmarkLoad(b *testing.B) {
	dirs := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := Load(dirs, Config{})
		if err != nil {
			b.Fatal(err)
		}
		p.Linked()
	}
}
