package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rpq"
	"rpq/internal/gen"
	"rpq/internal/lts"
)

// The paper-solve workload: one library caller runs the paper's grid of
// Table 1 and Table 2 queries through ParsePattern → LintForGraph → Exist
// with a shared QueryCache.

const (
	fwdUninit    = "(!def(x))* use(x,_)"
	fwdFirstUse  = "(!(def(x)|use(x,_)))* use(x,_)"
	bwdUninit    = "_* use(x,l) (!def(x))* entry()"
	ltsDeadlock  = "_* state(s) act(_)"
	useDefPolicy = "(def(x) (use(x,_))*)*"
)

// Grid bounds. Table 1 rows past "cut" take 0.1–0.7 s per query and
// backward enumeration takes 0.3–17 s on the rows kept; Table 2 rows past
// vasy-8-38 and enumeration on every LTS but the smallest take seconds.
// Both are left out so that one pass over the grid stays near 4 s.
const (
	table1Rows = 5
	table2Rows = 7
)

// input is one generated graph document, in the bytes the program reads.
type input struct {
	name   string
	format string // "text" or "aut"
	data   []byte
	lts    *lts.LTS
}

func table1Input(s gen.ProgSpec) (input, error) {
	var buf bytes.Buffer
	if err := gen.Program(s).Write(&buf); err != nil {
		return input{}, err
	}
	return input{name: s.Name, format: "text", data: buf.Bytes()}, nil
}

func table2Input(s gen.LTSSpec) (input, error) {
	l := gen.RandomLTS(s)
	var buf bytes.Buffer
	if err := l.WriteAUT(&buf); err != nil {
		return input{}, err
	}
	return input{name: s.Name, format: "aut", data: buf.Bytes(), lts: l}, nil
}

// paperInputs generates the grid's graphs.
func paperInputs() ([]input, error) {
	var ins []input
	for _, s := range gen.Table1Specs()[:table1Rows] {
		in, err := table1Input(s)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	for _, s := range gen.Table2Specs()[:table2Rows] {
		in, err := table2Input(s)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// load builds the program's graph from an input's bytes.
func (in input) load() (*rpq.Graph, error) {
	if in.format == "aut" {
		return rpq.FromAUT(bytes.NewReader(in.data), false)
	}
	return rpq.ReadGraph(bytes.NewReader(in.data))
}

// answerKey names one query's answer set; the library and the service
// must produce the same set for the same key.
func answerKey(graph, kind, pat string, backward, withExit bool) string {
	return fmt.Sprintf("%s|%s|%s|bwd=%v|exit=%v", graph, kind, pat, backward, withExit)
}

// expectations computes, for every query the oracles cover, the expected
// answer digest, and adds the pinned digests for the rest.
func expectations(ins []input, pins *pinFile) (map[string]string, error) {
	want := map[string]string{}
	for k, v := range pins.Answers {
		want[k] = v
	}
	for _, in := range ins {
		if in.format == "aut" {
			d, err := deadlockOracle(in.data, in.lts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			want[answerKey(in.name, "exist", ltsDeadlock, false, false)] = d
			continue
		}
		for _, p := range []struct {
			pat     string
			alsoUse bool
		}{{fwdUninit, false}, {fwdFirstUse, true}} {
			d, err := uninitOracle(in.data, p.alsoUse)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			want[answerKey(in.name, "exist", p.pat, false, false)] = d
		}
	}
	return want, nil
}

// paperCell is one point of the grid.
type paperCell struct {
	name     string
	graph    string
	pat      string
	backward bool
	algo     rpq.Algorithm
	table    rpq.TableKind
	want     string
}

func paperGrid(ins []input, want map[string]string) ([]paperCell, error) {
	var cells []paperCell
	add := func(graph, pat, dir string, backward bool, algos []rpq.Algorithm, tables []rpq.TableKind) error {
		key := answerKey(graph, "exist", pat, backward, false)
		w, ok := want[key]
		if !ok {
			return fmt.Errorf("no expected answers for %s (regenerate pins.json)", key)
		}
		for _, a := range algos {
			for _, t := range tables {
				cells = append(cells, paperCell{
					name: fmt.Sprintf("%s/%s/%v/%v", graph, dir, a, t), graph: graph, pat: pat,
					backward: backward, algo: a, table: t, want: w,
				})
			}
		}
		return nil
	}
	both := []rpq.TableKind{rpq.Hashing, rpq.NestedArrays}
	worklist := []rpq.Algorithm{rpq.Basic, rpq.Memo, rpq.Precompute}
	for _, in := range ins {
		var err error
		if in.format == "aut" {
			err = add(in.name, ltsDeadlock, "deadlock", false, worklist, []rpq.TableKind{rpq.Hashing})
		} else {
			if err = add(in.name, fwdUninit, "fwd", false, append(worklist, rpq.Enumerate), both); err == nil {
				err = add(in.name, bwdUninit, "bwd", true, worklist, both)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// paperEnv is one set-up instance: the loaded graphs and the shared cache.
type paperEnv struct {
	graphs map[string]*rpq.Graph
	cache  *rpq.QueryCache
}

// paperOp is what one grid query reports to the layer accounting.
type paperOp struct {
	lat           time.Duration
	res           *rpq.Result
	existWall     time.Duration
	miss          bool
	allocs        uint64
	parse, lint   time.Duration
	compileOnMiss time.Duration
	err           error // errWrongAnswers when the answers fail their check
}

// query runs one cell the way a library caller does. With a tracer, it
// also records spans and the counters that need a read around the call.
func (e *paperEnv) query(c *paperCell, workers int, tr *tracer, op int64) paperOp {
	r := paperOp{}
	root := tr.reserve("op", op, 0)
	t0 := time.Now()
	p, err := rpq.ParsePattern(c.pat)
	t1 := time.Now()
	tr.add("pattern.parse", op, root, t0, t1)
	if err != nil {
		r.err = err
		return r
	}
	g := e.graphs[c.graph]
	_ = rpq.LintForGraph(g, p)
	t2 := time.Now()
	tr.add("analyze.lint", op, root, t1, t2)
	var before rpq.QueryCacheStats
	objs := uint64(0)
	if tr != nil {
		before = e.cache.Stats()
		objs = allocObjects()
	}
	t3 := time.Now()
	res, err := g.Exist(p, &rpq.Options{
		Algorithm: c.algo, Table: c.table, Backward: c.backward, Workers: workers, Cache: e.cache,
	})
	t4 := time.Now()
	if tr != nil {
		r.allocs = allocObjects() - objs
		r.miss = e.cache.Stats().Misses > before.Misses
	}
	tr.add("rpq.exist", op, root, t3, t4)
	tr.finish(root, t0, t4)
	r.lat, r.parse, r.lint, r.existWall = t4.Sub(t0), t1.Sub(t0), t2.Sub(t1), t4.Sub(t3)
	if err != nil {
		r.err = err
		return r
	}
	r.res = res
	if r.miss {
		r.compileOnMiss = res.Stats.Phases.Compile.Wall
	}
	if d := resultDigest(res); d != c.want {
		r.err = fmt.Errorf("%w: %s, want %s", errWrongAnswers, d, c.want)
	}
	return r
}

// paperRef sums the exact counters of the warm-up queries: one sequential
// memo/hash query per graph and pattern, the same on every seed.
type paperRef struct {
	inserts, bytes, answers int64
	compiles                []float64 // µs, one per cache miss
}

// setupPaper generates the inputs, loads every graph, and warms the
// compiled-query cache with one query per graph and pattern. It appends each
// graph's load time to graphLoads and the whole catalog's to catalogLoads.
func setupPaper(cells []paperCell, tr *tracer, graphLoads, catalogLoads *[]float64) (*paperEnv, paperRef, error) {
	ref := paperRef{}
	ins, err := paperInputs()
	if err != nil {
		return nil, ref, err
	}
	e := &paperEnv{graphs: map[string]*rpq.Graph{}, cache: rpq.NewQueryCache(rpq.DefaultQueryCacheSize)}
	c0 := startStopwatch()
	for _, in := range ins {
		t0 := time.Now()
		g, err := in.load()
		t1 := time.Now()
		if err != nil {
			return nil, ref, fmt.Errorf("load %s: %w", in.name, err)
		}
		tr.add("graph.load", 0, 0, t0, t1)
		*graphLoads = append(*graphLoads, ms(t1.Sub(t0)))
		e.graphs[in.name] = g
	}
	*catalogLoads = append(*catalogLoads, c0.seconds()*1e3)
	warmed := map[string]bool{}
	for _, c := range cells {
		k := c.graph + "|" + c.pat
		if warmed[k] {
			continue
		}
		warmed[k] = true
		c.algo, c.table = rpq.Memo, rpq.Hashing
		// Wrong answers are counted by the timed operations, which run
		// every cell; only an error stops the set-up.
		r := e.query(&c, 1, nil, 0)
		if r.res == nil {
			return nil, ref, fmt.Errorf("warm-up %s: %w", c.name, r.err)
		}
		st := r.res.Stats
		ref.inserts += int64(st.WorklistInserts)
		ref.bytes += st.Bytes
		ref.answers += int64(len(r.res.Answers))
		ref.compiles = append(ref.compiles, float64(st.Phases.Compile.Wall.Nanoseconds())/1e3)
	}
	return e, ref, nil
}

// inputBytes sums the size of the generated documents, for graph.load_mb_per_s.
func inputBytes(ins []input) int {
	n := 0
	for _, in := range ins {
		n += len(in.data)
	}
	return n
}

func runPaper(cfg runCfg) (*outcome, error) {
	ins, err := paperInputs()
	if err != nil {
		return nil, err
	}
	want, err := expectations(ins, cfg.pins)
	if err != nil {
		return nil, err
	}
	cells, err := paperGrid(ins, want)
	if err != nil {
		return nil, err
	}
	out := newOutcome(0.98)
	var env *paperEnv
	ref := paperRef{}
	// load_p50_ms here is the median whole-catalog load of the set-ups:
	// per-graph times form twelve clusters, and their median would sit on a
	// cluster boundary.
	var graphLoads []float64
	for i := 0; i < setupRepeats; i++ {
		env = nil
		runtime.GC() // each set-up starts from a heap without the last one's garbage
		sw := startStopwatch()
		env, ref, err = setupPaper(cells, cfg.tr, &graphLoads, &out.loads)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, sw.seconds())
		cfg.guard.check("paper/ref/inserts", ref.inserts)
		cfg.guard.check("paper/ref/table_bytes", ref.bytes)
		cfg.guard.check("paper/ref/answers", ref.answers)
	}
	// A seeded quarter of the grid runs on the parallel solver each pass;
	// the choice rotates so every cell takes its turn, and a run makes whole
	// cycles of four passes, so every cell runs as often on each solver
	// whatever the seed.
	rng := rand.New(rand.NewSource(cfg.seed))
	rank := rng.Perm(len(cells))
	acc := &layerAcc{}
	runtime.GC() // the measured phase starts from a heap without set-up's garbage
	start := time.Now()
	var op int64
	for round := 0; round%4 != 0 || cfg.more(round, out, start); round++ {
		tr := cfg.tracedRound(round)
		out.startRound()
		for _, i := range rng.Perm(len(cells)) {
			c := &cells[i]
			workers := 1
			if (rank[i]+round)%4 == 0 {
				workers = 2
			}
			op++
			r := env.query(c, workers, tr, op)
			out.attempted++
			if r.err != nil {
				out.fail(c.name + ": " + r.err.Error())
				continue
			}
			out.record(r.lat)
			st := r.res.Stats
			wkey := fmt.Sprintf("paper/%s/w%d", c.name, workers)
			cfg.guard.check(wkey+"/inserts", int64(st.WorklistInserts))
			cfg.guard.check(wkey+"/answers", int64(len(r.res.Answers)))
			if workers == 1 {
				cfg.guard.check(wkey+"/table_bytes", st.Bytes)
			}
			if tr != nil {
				acc.parseUS = append(acc.parseUS, float64(r.parse.Nanoseconds())/1e3)
				acc.lintUS = append(acc.lintUS, float64(r.lint.Nanoseconds())/1e3)
				acc.addCore(st, r.allocs)
				acc.convert += r.existWall - st.Phases.Solve.Wall - r.compileOnMiss
				acc.compile += r.compileOnMiss
				acc.opTime += r.lat
				acc.ops++
			}
		}
		out.endRound(tr != nil)
	}
	out.wall = time.Since(start)
	if cfg.tr != nil {
		cs := env.cache.Stats()
		m := out.layers
		acc.finishCore(m)
		runtimeLayer(m, out)
		m["pattern.parse_us"] = median(acc.parseUS)
		m["analyze.lint_us"] = median(acc.lintUS)
		m["rpq.cache_hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
		m["core.compile_us"] = median(ref.compiles)
		m["graph.load_ms"] = median(graphLoads)
		m["graph.load_mb_per_s"] = ratio(float64(inputBytes(ins))*setupRepeats/(1<<20), sumMS(graphLoads)/1e3)
		m["rpq.convert_ms"] = ratio(ms(acc.convert), float64(acc.ops))
		m["core.worklist_inserts"] = float64(ref.inserts)
		m["core.table_bytes"] = float64(ref.bytes)
		m["rpq.answers"] = float64(ref.answers)
		self, total := cfg.tr.selfTimes("op")
		m["pattern.parse_share_pct"] = pct(self["pattern.parse"], total)
		m["analyze.lint_share_pct"] = pct(self["analyze.lint"], total)
		m["core.compile_share_pct"] = pct(acc.compile, acc.opTime)
		m["core.solve_share_pct"] = pct(acc.solve, acc.opTime)
		m["rpq.convert_share_pct"] = pct(acc.convert, acc.opTime)
		m["bench.self_share_pct"] = pct(self["op"], total)
	}
	return out, nil
}
