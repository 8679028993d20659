package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"rpq"
	"rpq/internal/gen"
	"rpq/internal/obs"
	"rpq/internal/service"
)

// The rpqd-mixed workload: one closed-loop client against an in-process
// query service (rpqd's defaults: two solve slots, a 128-entry compiled
// query cache, the lint gate on) over loopback HTTP.
//
// One client, not several: on a two-CPU host a second client keeps both
// CPUs busy, and the latencies then measure how the host schedules the two
// rather than the service. On a two-vCPU Xeon VM with one CPU taken by a
// busy loop, two clients ran 64% slower at the median, one client 10%.

// rpqdInputs is the service catalog: two small Table 1 programs for the
// cheap queries and three mid-size Table 2 systems for the answer-heavy
// ones.
func rpqdInputs() ([]input, error) {
	var ins []input
	for _, s := range gen.Table1Specs()[:2] {
		in, err := table1Input(s)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	for _, s := range gen.Table2Specs()[1:4] {
		in, err := table2Input(s)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// rpqdOp is one entry of the client's script: a query, or a graph PUT that
// replaces a catalog entry with the same document.
type rpqdOp struct {
	name  string
	put   *input
	graph string
	req   service.QueryRequest
	body  []byte
	want  string
	count int    // copies per pass
	part  string // which part of the mix it belongs to
}

// The parts of the mix, for the summary line's share of client time.
const (
	partCheap = "cheap"
	partHeavy = "answer-heavy"
	partCheck = "universal/violations"
	partPut   = "PUT"
)

// rpqdScript builds one pass of the mix. Per pass: 22 cheap
// existential queries on the Table 1 programs, 8 answer-heavy lts-deadlock
// queries, 3 universal and 3 violations requests, and 6 PUTs (each of one
// text and two AUT documents twice) — the PUTs swap the label universe, so
// later queries on that graph miss the compiled-query cache. The mix is
// chosen, not measured traffic: see README.md for the share of client time
// each part takes. Two PUTs of each document give each round six loads
// for the round median that load_p50_ms is taken over.
func rpqdScript(ins []input, want map[string]string) ([]rpqdOp, error) {
	byName := map[string]*input{}
	for i := range ins {
		byName[ins[i].name] = &ins[i]
	}
	var ops []rpqdOp
	query := func(graph, kind, pat string, backward, withExit bool, count int) {
		part := partCheap
		switch {
		case kind != "exist":
			part = partCheck
		case pat == ltsDeadlock:
			part = partHeavy
		}
		ops = append(ops, rpqdOp{
			name: answerKey(graph, kind, pat, backward, withExit), graph: graph, count: count, part: part,
			req: service.QueryRequest{Graph: graph, Kind: kind, Pattern: pat, WithExit: withExit,
				Options: service.QueryOptions{Backward: backward}},
		})
	}
	for _, g := range []string{"cksum", "sum"} {
		query(g, "exist", fwdUninit, false, false, 4)
		query(g, "exist", fwdFirstUse, false, false, 4)
		query(g, "exist", bwdUninit, true, false, 3)
	}
	query("cwi-1-2", "exist", ltsDeadlock, false, false, 3)
	query("vasy-1-4", "exist", ltsDeadlock, false, false, 3)
	query("vasy-5-9", "exist", ltsDeadlock, false, false, 2)
	query("cksum", "universal", fwdUninit, false, false, 2)
	query("sum", "universal", fwdFirstUse, false, false, 1)
	query("cksum", "violations", useDefPolicy, false, false, 2)
	query("sum", "violations", useDefPolicy, false, true, 1)
	for _, g := range []string{"cksum", "cwi-1-2", "vasy-1-4"} {
		ops = append(ops, rpqdOp{name: "PUT " + g, put: byName[g], graph: g, count: 2, part: partPut})
	}
	for i := range ops {
		o := &ops[i]
		if o.put != nil {
			continue
		}
		w, ok := want[o.name]
		if !ok {
			return nil, fmt.Errorf("no expected answers for %s (regenerate pins.json)", o.name)
		}
		o.want = w
		b, err := json.Marshal(o.req)
		if err != nil {
			return nil, err
		}
		o.body = b
	}
	return ops, nil
}

// queryReply is the part of a query response the client checks.
type queryReply struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Answers   []struct {
		Vertex   string `json:"vertex"`
		Bindings []struct {
			Param  string `json:"param"`
			Symbol string `json:"symbol"`
		} `json:"bindings"`
	} `json:"answers"`
	Stats rpq.Stats `json:"stats"`
}

func (r *queryReply) digest() string {
	lines := make([]string, len(r.Answers))
	for i, a := range r.Answers {
		ps := make([]string, len(a.Bindings))
		ss := make([]string, len(a.Bindings))
		for j, b := range a.Bindings {
			ps[j], ss[j] = b.Param, b.Symbol
		}
		lines[i] = answerLine(a.Vertex, ps, ss)
	}
	return digestLines(lines)
}

// serviceStats is the part of /api/v1/stats the benchmark reads.
type serviceStats struct {
	Cache     rpq.QueryCacheStats `json:"cache"`
	Admission map[string]int64    `json:"admission"`
}

// rpqdEnv is one set-up instance: the service behind a loopback listener
// and the HTTP client.
type rpqdEnv struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func (e *rpqdEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // nothing is in flight once ts.Close returns
}

// rpqdResult is one request's outcome as the client saw it.
type rpqdResult struct {
	lat      time.Duration // send to last response byte
	decode   time.Duration
	size     int
	reply    queryReply
	err      error // errWrongAnswers when the answers fail their check
	start    time.Time
	lastByte time.Time
}

// do sends one script entry and reads the whole response; a query's body
// is decoded and checked after the timed interval.
func (e *rpqdEnv) do(o *rpqdOp) rpqdResult {
	r := rpqdResult{}
	var req *http.Request
	var err error
	if o.put != nil {
		req, err = http.NewRequest(http.MethodPut, e.ts.URL+"/api/v1/graphs/"+o.graph+"?format="+o.put.format, bytes.NewReader(o.put.data))
	} else {
		req, err = http.NewRequest(http.MethodPost, e.ts.URL+"/api/v1/query", bytes.NewReader(o.body))
	}
	if err != nil {
		r.err = err
		return r
	}
	r.start = time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	r.lastByte = time.Now()
	resp.Body.Close()
	r.lat, r.size = r.lastByte.Sub(r.start), len(body)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode/100 != 2 {
		r.err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
		return r
	}
	if o.put != nil {
		return r
	}
	if err := json.Unmarshal(body, &r.reply); err != nil {
		r.err = fmt.Errorf("decode: %w", err)
		return r
	}
	r.decode = time.Since(r.lastByte)
	if d := r.reply.digest(); d != o.want {
		r.err = fmt.Errorf("%w: %s, want %s", errWrongAnswers, d, o.want)
	}
	return r
}

func (e *rpqdEnv) stats() (serviceStats, error) {
	st := serviceStats{}
	resp, err := e.client.Get(e.ts.URL + "/api/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// rpqdRef sums the exact counters of one pass over the script, from the
// warm-up responses.
type rpqdRef struct{ inserts, bytes, answers int64 }

// setupRPQD starts the service, loads the catalog through the API, and
// warms up with every distinct query once.
func setupRPQD(script []rpqdOp, g *guard) (*rpqdEnv, rpqdRef, error) {
	ref := rpqdRef{}
	ins, err := rpqdInputs()
	if err != nil {
		return nil, ref, err
	}
	srv := service.NewServer(service.Config{
		MaxConcurrent: 2,
		CacheSize:     rpq.DefaultQueryCacheSize,
		Registry:      obs.NewRegistry(),
		Inflight:      obs.NewInflight(),
	})
	e := &rpqdEnv{srv: srv, ts: httptest.NewServer(srv.Handler()), client: &http.Client{
		Transport: &http.Transport{},
	}}
	for i := range ins {
		r := e.do(&rpqdOp{put: &ins[i], graph: ins[i].name})
		if r.err != nil {
			e.close()
			return nil, ref, fmt.Errorf("load %s: %w", ins[i].name, r.err)
		}
	}
	for i := range script {
		o := &script[i]
		if o.put != nil {
			continue
		}
		// Wrong answers are counted by the timed operations, which run
		// every query; only an error stops the set-up.
		r := e.do(o)
		if r.err != nil && !errors.Is(r.err, errWrongAnswers) {
			e.close()
			return nil, ref, fmt.Errorf("warm-up %s: %w", o.name, r.err)
		}
		st := r.reply.Stats
		g.check("rpqd/"+o.name+"/inserts", int64(st.WorklistInserts))
		g.check("rpqd/"+o.name+"/table_bytes", st.Bytes)
		g.check("rpqd/"+o.name+"/answers", int64(len(r.reply.Answers)))
		ref.inserts += int64(o.count * st.WorklistInserts)
		ref.bytes += int64(o.count) * st.Bytes
		ref.answers += int64(o.count * len(r.reply.Answers))
	}
	return e, ref, nil
}

// rpqdAcc accumulates the traced rounds' measurements.
type rpqdAcc struct {
	layerAcc
	overhead, elapsed time.Duration
	compileUS, loadMS []float64
	respBytes         int
	loadBytes         int
}

func runRPQD(cfg runCfg) (*outcome, error) {
	ins, err := rpqdInputs()
	if err != nil {
		return nil, err
	}
	want, err := expectations(ins, cfg.pins)
	if err != nil {
		return nil, err
	}
	script, err := rpqdScript(ins, want)
	if err != nil {
		return nil, err
	}
	out := newOutcome(0.99)
	var env *rpqdEnv
	ref := rpqdRef{}
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		runtime.GC() // each set-up starts from a heap without the last one's garbage
		sw := startStopwatch()
		env, ref, err = setupRPQD(script, cfg.guard)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, sw.seconds())
	}
	defer env.close()
	// The benchmark's own copies of the catalog graphs, for the traced
	// run's parse, lint and load probes.
	local := map[string]*rpq.Graph{}
	if cfg.tr != nil {
		for _, in := range ins {
			if local[in.name], err = in.load(); err != nil {
				return nil, err
			}
		}
	}
	st0, err := env.stats()
	if err != nil {
		return nil, err
	}
	runtime.GC() // the measured phase starts from a heap without set-up's garbage
	var untracedInserts int64
	partMS := map[string]float64{}
	acc := &rpqdAcc{}
	rng := rand.New(rand.NewSource(cfg.seed))
	var order []int
	for i, o := range script {
		for k := 0; k < o.count; k++ {
			order = append(order, i)
		}
	}
	// Each round, the client runs a new shuffled pass of the script in a
	// closed loop.
	op := int64(0)
	start := time.Now()
	for round := 0; cfg.more(round, out, start); round++ {
		tr := cfg.tracedRound(round)
		out.startRound()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			o := &script[i]
			op++
			r := env.do(o)
			root := tr.reserve("op", op, 0)
			tr.add("service.request", op, root, r.start, r.lastByte)
			tr.add("client.decode", op, root, r.lastByte, r.lastByte.Add(r.decode))
			tr.finish(root, r.start, r.lastByte.Add(r.decode))
			out.attempted++
			if r.err != nil {
				out.fail(o.name + ": " + r.err.Error())
				continue
			}
			if o.put != nil {
				out.recordLoad(r.lat, true)
			} else {
				out.record(r.lat)
				st := r.reply.Stats
				cfg.guard.check("rpqd/"+o.name+"/inserts", int64(st.WorklistInserts))
				cfg.guard.check("rpqd/"+o.name+"/table_bytes", st.Bytes)
				cfg.guard.check("rpqd/"+o.name+"/answers", int64(len(r.reply.Answers)))
			}
			switch {
			case tr == nil:
				partMS[o.part] += ms(r.lat)
				untracedInserts += int64(r.reply.Stats.WorklistInserts)
			case o.put != nil:
				probeLoad(tr, op, o, acc)
			default:
				probeQuery(tr, op, o, local, &r, acc)
			}
		}
		out.endRound(tr != nil)
	}
	partTotal := 0.0
	for _, v := range partMS {
		partTotal += v
	}
	share := func(part string) float64 { return ratio(100*partMS[part], partTotal) }
	out.notes = append(out.notes, fmt.Sprintf("client time by part: cheap %.1f%%, answer-heavy %.1f%%, universal/violations %.1f%%, PUT %.1f%%",
		share(partCheap), share(partHeavy), share(partCheck), share(partPut)))
	out.wall = time.Since(start)
	st1, err := env.stats()
	if err != nil {
		return nil, err
	}
	m := out.layers
	m["service.rejected"] = float64(st1.Admission["rejected"] - st0.Admission["rejected"])
	m["service.queue_timeouts"] = float64(st1.Admission["queue_timeouts"] - st0.Admission["queue_timeouts"])
	if cfg.tr == nil {
		return out, nil
	}
	runtimeLayer(m, out)
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	missRate := ratio(float64(misses), float64(hits+misses))
	// elapsed_ms covers parse, lint, compile (on a miss), solve and
	// answer conversion; compile cost is charged at the measured miss rate.
	compile := time.Duration(float64(acc.compile) * missRate)
	convert := acc.elapsed - acc.solve - compile
	acc.finishCore(m)
	// Allocations of both sides of the HTTP exchange, over untraced rounds.
	m["core.allocs_per_insert"] = ratio(float64(out.rt.allocObjects), float64(untracedInserts))
	m["pattern.parse_us"] = median(acc.parseUS)
	m["analyze.lint_us"] = median(acc.lintUS)
	m["core.compile_us"] = median(acc.compileUS)
	m["rpq.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["graph.load_ms"] = median(acc.loadMS)
	m["graph.load_mb_per_s"] = ratio(float64(acc.loadBytes)/(1<<20), sumMS(acc.loadMS)/1e3)
	m["rpq.convert_ms"] = ratio(ms(convert), float64(acc.ops))
	m["rpq.answers"] = float64(ref.answers)
	m["core.worklist_inserts"] = float64(ref.inserts)
	m["core.table_bytes"] = float64(ref.bytes)
	m["service.overhead_ms"] = ratio(ms(acc.overhead), float64(acc.ops))
	m["service.response_kb"] = ratio(float64(acc.respBytes)/1024, float64(acc.ops))
	self, total := cfg.tr.selfTimes("op")
	m["service.overhead_share_pct"] = pct(acc.overhead, total)
	m["core.solve_share_pct"] = pct(acc.solve, total)
	m["core.compile_share_pct"] = pct(compile, total)
	m["rpq.convert_share_pct"] = pct(convert, total)
	m["client.decode_share_pct"] = pct(self["client.decode"], total)
	m["bench.self_share_pct"] = pct(self["op"], total)
	return out, nil
}

// probeQuery repeats, after a traced query, the parse and lint the service
// ran inside the request, on the benchmark's own copy of the graph, and
// books the response's counters.
func probeQuery(tr *tracer, op int64, o *rpqdOp, local map[string]*rpq.Graph, r *rpqdResult, acc *rpqdAcc) {
	probe := tr.reserve("probe", op, 0)
	p0 := time.Now()
	p, err := rpq.ParsePattern(o.req.Pattern)
	t1 := time.Now()
	tr.add("pattern.parse", op, probe, p0, t1)
	t2 := t1
	if err == nil {
		_ = rpq.LintForGraph(local[o.graph], p)
		t2 = time.Now()
		tr.add("analyze.lint", op, probe, t1, t2)
	}
	tr.finish(probe, p0, t2)
	st := r.reply.Stats
	elapsed := time.Duration(r.reply.ElapsedMS * float64(time.Millisecond))
	acc.parseUS = append(acc.parseUS, float64(t1.Sub(p0).Nanoseconds())/1e3)
	if err == nil {
		acc.lintUS = append(acc.lintUS, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	acc.addCore(st, 0) // allocations are counted over untraced rounds
	acc.ops++
	acc.elapsed += elapsed
	acc.overhead += r.lat - elapsed
	acc.compile += st.Phases.Compile.Wall
	acc.compileUS = append(acc.compileUS, float64(st.Phases.Compile.Wall.Nanoseconds())/1e3)
	acc.respBytes += r.size
}

// probeLoad repeats, after a traced PUT, the graph load the service ran
// inside the request, on the same document.
func probeLoad(tr *tracer, op int64, o *rpqdOp, acc *rpqdAcc) {
	probe := tr.reserve("probe", op, 0)
	t0 := time.Now()
	_, err := o.put.load()
	t1 := time.Now()
	tr.add("graph.load", op, probe, t0, t1)
	tr.finish(probe, t0, t1)
	if err != nil {
		return // the service accepted the same bytes; its check stands
	}
	acc.loadMS = append(acc.loadMS, ms(t1.Sub(t0)))
	acc.loadBytes += len(o.put.data)
}
