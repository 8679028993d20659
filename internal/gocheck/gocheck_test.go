package gocheck

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rpq/internal/gofront"
)

const fixtures = "../../testdata/goprog"

// runFixture evaluates all checks over one fixture directory and renders
// findings one per line as "file:line:col check message", with file paths
// trimmed to their base name so goldens are location-independent.
func runFixture(t *testing.T, dir string, opts Options) (*Report, string) {
	t.Helper()
	rep, err := Run([]string{filepath.Join(fixtures, dir)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range rep.Findings {
		suffix := ""
		if f.Suppressed {
			suffix = " (suppressed)"
		}
		b.WriteString(filepath.Base(f.File))
		b.WriteString(":")
		b.WriteString(strings.TrimPrefix(f.Pos(), f.File+":"))
		b.WriteString(" ")
		b.WriteString(f.Check)
		b.WriteString(" ")
		b.WriteString(f.Message)
		b.WriteString(suffix)
		b.WriteString("\n")
	}
	return rep, b.String()
}

// TestFixtureFindings pins the exact finding set — positions included —
// for every seeded fixture. Regenerate with UPDATE_GOLDEN=1.
func TestFixtureFindings(t *testing.T) {
	for _, dir := range []string{"uninit", "closechan", "locks", "deferloop"} {
		t.Run(dir, func(t *testing.T) {
			_, got := runFixture(t, dir, Options{})
			golden := filepath.Join("testdata", dir+".golden")
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
				t.Errorf("findings mismatch (regen with UPDATE_GOLDEN=1)\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSeededPositive asserts the canonical known-positive: Report in the
// uninit fixture reads total before any assignment, flagged at the exact
// `return total` span.
func TestSeededPositive(t *testing.T) {
	rep, _ := runFixture(t, "uninit", Options{Checks: []string{"uninit-use"}})
	var hit *Finding
	for i, f := range rep.Findings {
		if strings.HasSuffix(f.Bindings["x"], ".Report.total") {
			hit = &rep.Findings[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("seeded uninit-use on Report.total not found; findings: %+v", rep.Findings)
	}
	if filepath.Base(hit.File) != "uninit.go" || hit.Line != 14 || hit.Col != 9 {
		t.Errorf("seeded finding at %s, want uninit.go:14:9 (the total read in `return total`)", hit.Pos())
	}
	if !hit.Span.Valid() {
		t.Errorf("seeded finding has no byte span: %+v", hit.Span)
	}
	if !strings.Contains(hit.Message, "total") {
		t.Errorf("message should name the short symbol: %q", hit.Message)
	}
}

// TestSuppression: the Allowed function in the uninit fixture carries
// //rpqcheck:allow uninit-use, so its finding is dropped by default and
// marked when ShowSuppressed is set.
func TestSuppression(t *testing.T) {
	rep, _ := runFixture(t, "uninit", Options{Checks: []string{"uninit-use"}})
	if rep.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", rep.Suppressed)
	}
	for _, f := range rep.Findings {
		if strings.Contains(f.Bindings["x"], ".Allowed.") {
			t.Errorf("suppressed finding leaked into report: %+v", f)
		}
	}
	rep2, _ := runFixture(t, "uninit", Options{Checks: []string{"uninit-use"}, ShowSuppressed: true})
	found := false
	for _, f := range rep2.Findings {
		if strings.Contains(f.Bindings["x"], ".Allowed.") && f.Suppressed {
			found = true
		}
	}
	if !found {
		t.Errorf("ShowSuppressed should surface the allowed finding as suppressed")
	}
}

func TestBaselineRoundtrip(t *testing.T) {
	rep, _ := runFixture(t, "locks", Options{})
	if len(rep.Findings) == 0 {
		t.Fatal("locks fixture should produce findings")
	}
	base := NewBaseline(rep)
	var buf bytes.Buffer
	if err := base.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	news, fixed := loaded.Diff(rep)
	if len(news) != 0 || len(fixed) != 0 {
		t.Errorf("self-diff should be empty, got %d new, %d fixed", len(news), len(fixed))
	}
	// A report missing one finding shows it as fixed; an extra one is new.
	trimmed := *rep
	trimmed.Findings = rep.Findings[1:]
	news, fixed = loaded.Diff(&trimmed)
	if len(news) != 0 || len(fixed) == 0 {
		t.Errorf("dropping a finding: got %d new, %d fixed", len(news), len(fixed))
	}
	extra := *rep
	extra.Findings = append([]Finding{{Check: "double-lock", File: "other.go",
		Bindings: map[string]string{"m": "pkg.F.mu"}}}, rep.Findings...)
	news, _ = loaded.Diff(&extra)
	if len(news) != 1 {
		t.Errorf("added finding: got %d new, want 1", len(news))
	}
}

// TestAdvisories: a pattern negating a constructor the graph never emits
// surfaces an RPQ016 alphabet-coverage advisory alongside the findings.
func TestAdvisories(t *testing.T) {
	rep, err := RunSource(map[string]string{"main.go": `package p
func F() {
	ch := make(chan int)
	close(ch)
	ch <- 1
}`}, Options{Checks: []string{"use-after-close", "uninit-use"}})
	if err != nil {
		t.Fatal(err)
	}
	// This tiny program has no decl/lock/mcall edges, so at least one check
	// pattern references constructors absent from the alphabet.
	if len(rep.Advisories) == 0 {
		t.Errorf("expected alphabet advisories for the missing constructors")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Check == "use-after-close" {
			found = true
		}
	}
	if !found {
		t.Errorf("send-after-close not flagged; findings: %+v", rep.Findings)
	}
}

func TestRunSourceTxtar(t *testing.T) {
	files := gofront.SplitSource(`-- go.mod --
module demo

-- a.go --
package main

import "sync"

var mu sync.Mutex

func main() {
	mu.Lock()
	helper()
}

-- b.go --
package main

func helper() {
	mu.Lock()
}
`)
	rep, err := RunSource(files, Options{Checks: []string{"double-lock"}})
	if err != nil {
		t.Fatal(err)
	}
	// The double lock spans main -> helper: only the interprocedural graph
	// sees it.
	if len(rep.Findings) != 1 || rep.Findings[0].Bindings["m"] != "demo.mu" {
		t.Errorf("cross-function double-lock: %+v", rep.Findings)
	}
}

// TestRunSourceMatchesRun pins the in-memory path to the directory path:
// RunSource over a fixture's files reports the same findings, advisories
// and counts as Run over the fixture's directory. Fixtures without their
// own go.mod get one naming the package path Load derives for them.
func TestRunSourceMatchesRun(t *testing.T) {
	for _, dir := range []string{"benchmod", "uninit", "closechan", "locks", "deferloop"} {
		t.Run(dir, func(t *testing.T) {
			root := filepath.Join(fixtures, dir)
			opts := Options{ShowSuppressed: true}
			want, err := Run([]string{root + "/..."}, opts)
			if err != nil {
				t.Fatal(err)
			}
			files := map[string]string{"go.mod": "module rpq/testdata/goprog/" + dir + "\n"}
			err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				data, err := os.ReadFile(p)
				if err != nil {
					return err
				}
				rel, err := filepath.Rel(root, p)
				files[filepath.ToSlash(rel)] = string(data)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSource(files, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Run names files by their path; RunSource by their map key.
			prefix := filepath.ToSlash(root) + "/"
			for i := range want.Findings {
				want.Findings[i].File = strings.TrimPrefix(want.Findings[i].File, prefix)
			}
			if len(want.Findings) == 0 {
				t.Fatal("fixture produced no findings; the comparison would be vacuous")
			}
			if !reflect.DeepEqual(got.Findings, want.Findings) {
				t.Errorf("findings differ:\n got %+v\nwant %+v", got.Findings, want.Findings)
			}
			if !reflect.DeepEqual(got.Advisories, want.Advisories) {
				t.Errorf("advisories differ:\n got %+v\nwant %+v", got.Advisories, want.Advisories)
			}
			g, w := got.Stats, want.Stats
			if got.Suppressed != want.Suppressed || !slices.Equal(got.Checks, want.Checks) ||
				g.Functions != w.Functions || g.Vertices != w.Vertices || g.Edges != w.Edges {
				t.Errorf("counts differ: got %d suppressed %v %+v, want %d suppressed %v %+v",
					got.Suppressed, got.Checks, g, want.Suppressed, want.Checks, w)
			}
		})
	}
}

func TestTextAndJSONRendering(t *testing.T) {
	rep, _ := runFixture(t, "deferloop", Options{})
	var txt bytes.Buffer
	rep.WriteText(&txt, nil, false)
	if !strings.Contains(txt.String(), "[defer-in-loop]") {
		t.Errorf("text output missing check tag:\n%s", txt.String())
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"schema": "rpqcheck/1"`) {
		t.Errorf("json output missing schema:\n%s", js.String())
	}
}

func TestUnknownCheck(t *testing.T) {
	_, err := Run([]string{filepath.Join(fixtures, "uninit")}, Options{Checks: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Errorf("want unknown-check error, got %v", err)
	}
}

// BenchmarkRun is one rpqcheck run over benchmod with every check: one
// lowering, the derived linked program, and the five solves.
func BenchmarkRun(b *testing.B) {
	dirs := []string{filepath.Join(fixtures, "benchmod") + "/..."}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(dirs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
