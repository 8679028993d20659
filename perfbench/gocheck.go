package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rpq"
	"rpq/internal/gocheck"
	"rpq/internal/gofront"
	"rpq/internal/queries"
)

// The gocheck-std workload: one caller runs gocheck.Run — the rpqcheck
// engine, all five checks, default workers — on one standard-library
// package directory per operation.

// corpusSize and the source-size window bound the drawn corpus: packages
// of 4–120 KB of non-test Go source, so one pass stays near a second. An
// odd size puts the latency median inside one package's cluster.
const (
	corpusSize     = 15
	corpusMinBytes = 4 << 10
	corpusMaxBytes = 120 << 10
)

// goSrc returns $GOROOT/src of the toolchain the benchmark was built with.
func goSrc() (string, error) {
	root := runtime.GOROOT()
	if root == "" {
		root = os.Getenv("GOROOT")
	}
	if root == "" {
		return "", fmt.Errorf("cannot locate GOROOT")
	}
	return filepath.Join(root, "src"), nil
}

// drawCorpus draws package directories under src by seed: every directory
// outside cmd, vendor, testdata and internal trees whose non-test Go
// source is within the size window, shuffled, first n.
func drawCorpus(src string, seed int64, n int) ([]string, error) {
	var cands []string
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel(src, p)
		name := d.Name()
		if rel == "cmd" || name == "vendor" || name == "testdata" || name == "internal" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		size, err := goSourceBytes(p)
		if err != nil {
			return err
		}
		if size >= corpusMinBytes && size <= corpusMaxBytes {
			cands = append(cands, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(cands)
	rand.New(rand.NewSource(seed)).Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	sort.Strings(cands)
	return cands, nil
}

func goSourceBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := int64(0)
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// findingsDigest digests a report's findings, with file names relative to
// $GOROOT/src.
func findingsDigest(rep *gocheck.Report, src string) string {
	lines := make([]string, len(rep.Findings))
	for i, f := range rep.Findings {
		file, err := filepath.Rel(src, f.File)
		if err != nil {
			file = f.File
		}
		lines[i] = fmt.Sprintf("%s\t%s:%d:%d\t%s", f.Check, filepath.ToSlash(file), f.Line, f.Col, f.Message)
	}
	return digestLines(lines)
}

// checkPackage runs one operation: the rpqcheck engine on one directory.
func checkPackage(src string, pin corpusPin, workers int) (*gocheck.Report, time.Duration, error) {
	t0 := time.Now()
	rep, err := gocheck.Run([]string{filepath.Join(src, filepath.FromSlash(pin.Dir))}, gocheck.Options{Workers: workers})
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	if got := findingsDigest(rep, src); got != pin.Findings {
		return rep, d, fmt.Errorf("%w: findings %s, want %s", errWrongAnswers, got, pin.Findings)
	}
	return rep, d, nil
}

// setupGocheck checks the toolchain, resolves the corpus and warms up with
// one check of every package.
func setupGocheck(pins *pinFile) (string, error) {
	if v := runtime.Version(); v != pins.GoVersion {
		return "", fmt.Errorf("the gocheck-std corpus was drawn under %s, this is %s; regenerate pins.json", pins.GoVersion, v)
	}
	src, err := goSrc()
	if err != nil {
		return "", err
	}
	// Wrong findings are counted by the timed operations, which check
	// every package; only an error stops the set-up.
	for _, p := range pins.Corpus {
		if _, _, err := checkPackage(src, p, 0); err != nil && !errors.Is(err, errWrongAnswers) {
			return "", fmt.Errorf("warm-up %s: %w", p.Dir, err)
		}
	}
	return src, nil
}

// gocheckRef sums the exact counters of one pass over the corpus.
type gocheckRef struct{ vertices, edges, findings int64 }

func runGocheck(cfg runCfg) (*outcome, error) {
	if len(cfg.pins.Corpus) == 0 {
		return nil, fmt.Errorf("pins.json has no gocheck-std corpus")
	}
	out := newOutcome(0.98)
	src := ""
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each set-up starts from a heap without the last one's garbage
		sw := startStopwatch()
		s, err := setupGocheck(cfg.pins)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, sw.seconds())
		src = s
	}
	// Every package once on a single worker, against the pinned findings;
	// the timed operations then run at the default worker count.
	ref := gocheckRef{}
	for _, p := range cfg.pins.Corpus {
		rep, _, err := checkPackage(src, p, 1)
		if rep == nil {
			return nil, fmt.Errorf("%s at one worker: %w", p.Dir, err)
		}
		out.attempted++
		if err != nil {
			out.fail(p.Dir + " at one worker: " + err.Error())
		}
		guardReport(cfg.guard, p.Dir, rep)
		ref.vertices += int64(rep.Stats.Vertices)
		ref.edges += int64(rep.Stats.Edges)
		ref.findings += int64(len(rep.Findings))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	acc := &layerAcc{}
	build, solve, run, singleLoad := time.Duration(0), time.Duration(0), time.Duration(0), time.Duration(0)
	funcs, traced := 0, 0
	convert, compile := time.Duration(0), time.Duration(0)
	probeRef := map[string][3]int64{}
	runtime.GC() // the measured phase starts from a heap without set-up's garbage
	start := time.Now()
	var op int64
	for round := 0; cfg.more(round, out, start); round++ {
		tr := cfg.tracedRound(round)
		out.startRound()
		for _, i := range rng.Perm(len(cfg.pins.Corpus)) {
			p := cfg.pins.Corpus[i]
			op++
			root := tr.reserve("op", op, 0)
			t0 := time.Now()
			rep, d, err := checkPackage(src, p, 0)
			tr.add("gocheck.run", op, root, t0, t0.Add(d))
			tr.finish(root, t0, t0.Add(d))
			out.attempted++
			if err != nil {
				out.fail(p.Dir + ": " + err.Error())
				continue
			}
			out.record(d)
			out.recordLoad(time.Duration(rep.Stats.BuildNS), false)
			guardReport(cfg.guard, p.Dir, rep)
			if tr == nil {
				continue
			}
			traced++
			run += d
			build += time.Duration(rep.Stats.BuildNS)
			solve += time.Duration(rep.Stats.SolveNS)
			funcs += rep.Stats.Functions
			sl, counts, err := probeGocheck(tr, op, filepath.Join(src, filepath.FromSlash(p.Dir)), acc, &convert, &compile)
			if err != nil {
				return nil, fmt.Errorf("%s: probe: %w", p.Dir, err)
			}
			singleLoad += sl
			cfg.guard.check("gocheck/"+p.Dir+"/probe_inserts", counts[0])
			probeRef[p.Dir] = counts
		}
		out.endRound(tr != nil)
	}
	out.wall = time.Since(start)
	if cfg.tr == nil {
		return out, nil
	}
	m := out.layers
	runtimeLayer(m, out)
	n := float64(traced)
	m["gofront.lower_ms"] = ratio(ms(build), n)
	m["gocheck.solve_ms"] = ratio(ms(solve), n)
	m["gofront.funcs_per_s"] = ratio(float64(funcs), build.Seconds())
	m["gofront.vertices"] = float64(ref.vertices)
	m["gofront.edges"] = float64(ref.edges)
	m["gocheck.findings"] = float64(ref.findings)
	m["gofront.single_load_ms"] = ratio(ms(singleLoad), n)
	acc.finishCore(m)
	inserts, bytes, answers := int64(0), int64(0), int64(0)
	for _, c := range probeRef {
		inserts, bytes, answers = inserts+c[0], bytes+c[1], answers+c[2]
	}
	m["core.worklist_inserts"] = float64(inserts)
	m["core.table_bytes"] = float64(bytes)
	m["rpq.answers"] = float64(answers)
	m["pattern.parse_us"] = median(acc.parseUS)
	m["analyze.lint_us"] = median(acc.lintUS)
	m["core.compile_us"] = ratio(float64(compile.Nanoseconds())/1e3, float64(acc.ops))
	m["rpq.convert_ms"] = ratio(ms(convert), float64(acc.ops))
	m["gofront.lower_share_pct"] = pct(build, run)
	m["gocheck.solve_share_pct"] = pct(solve, run)
	self, total := cfg.tr.selfTimes("op")
	m["bench.self_share_pct"] = pct(self["op"], total)
	return out, nil
}

// guardReport books a report's exact counters under its package.
func guardReport(g *guard, dir string, rep *gocheck.Report) {
	g.check("gocheck/"+dir+"/functions", int64(rep.Stats.Functions))
	g.check("gocheck/"+dir+"/vertices", int64(rep.Stats.Vertices))
	g.check("gocheck/"+dir+"/edges", int64(rep.Stats.Edges))
	g.check("gocheck/"+dir+"/findings", int64(len(rep.Findings)))
}

// probeGocheck repeats, after a traced operation, the layer calls
// gocheck.Run makes internally: one interprocedural gofront.Load (timed as
// gofront.single_load_ms), then each check's parse, lint and Exist on the
// graph gocheck would use, for the core.* counters. It returns the single
// load's time and the (inserts, table bytes, answers) sums.
func probeGocheck(tr *tracer, op int64, dir string, acc *layerAcc, convert, compile *time.Duration) (time.Duration, [3]int64, error) {
	counts := [3]int64{}
	probe := tr.reserve("probe", op, 0)
	p0 := time.Now()
	defer func() { tr.finish(probe, p0, time.Now()) }()
	t0 := time.Now()
	inter, err := gofront.Load([]string{dir}, gofront.Config{Interproc: true})
	t1 := time.Now()
	if err != nil {
		return 0, counts, err
	}
	tr.add("gofront.load", op, probe, t0, t1)
	intra, err := gofront.Load([]string{dir}, gofront.Config{})
	if err != nil {
		return 0, counts, err
	}
	for _, c := range queries.GoChecks() {
		g := rpq.WrapGraph(intra.Graph)
		if c.Interproc {
			g = rpq.WrapGraph(inter.Graph)
		}
		a := time.Now()
		p, err := rpq.ParsePattern(c.Pattern)
		b := time.Now()
		if err != nil {
			return 0, counts, err
		}
		tr.add("pattern.parse", op, probe, a, b)
		_ = rpq.LintForGraph(g, p)
		c2 := time.Now()
		tr.add("analyze.lint", op, probe, b, c2)
		objs := allocObjects()
		c3 := time.Now()
		res, err := g.Exist(p, nil)
		c4 := time.Now()
		allocs := allocObjects() - objs
		if err != nil {
			return 0, counts, err
		}
		tr.add("rpq.exist", op, probe, c3, c4)
		st := res.Stats
		acc.parseUS = append(acc.parseUS, float64(b.Sub(a).Nanoseconds())/1e3)
		acc.lintUS = append(acc.lintUS, float64(c2.Sub(b).Nanoseconds())/1e3)
		acc.addCore(st, allocs)
		acc.ops++
		*compile += st.Phases.Compile.Wall
		*convert += c4.Sub(c3) - st.Phases.Solve.Wall - st.Phases.Compile.Wall
		counts[0] += int64(st.WorklistInserts)
		counts[1] += st.Bytes
		counts[2] += int64(len(res.Answers))
	}
	return t1.Sub(t0), counts, nil
}
