// Command perfbench is the repository benchmark. Each workload drives rpq
// through its public entry points the way one kind of user does — the
// library API (paper-solve), an in-process rpqd over loopback HTTP
// (rpqd-mixed), and the rpqcheck engine over real Go packages
// (gocheck-std) — checks every answer, and prints one JSON result line.
// Layers are timed only from outside: around the benchmark's own calls into
// each layer, and from the counters the program already returns.
//
// See README.md for usage.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rpq"
)

// errWrongAnswers marks an operation whose answers failed their check.
var errWrongAnswers = errors.New("wrong answers")

// procs is the processor count the benchmark was defined on. A run fixes
// GOMAXPROCS to it, so the default worker counts of gocheck and the
// service, and what the Workers-2 share of paper-solve competes with, are
// the same on every host.
const procs = 2

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

// endToEnd lists the metrics an untraced run prints, with their units;
// BENCHMARK.json declares the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"load_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints. A layer a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	{"pattern.parse_us", "us"},
	{"analyze.lint_us", "us"},
	{"core.compile_us", "us"},
	{"rpq.cache_hit_ratio", "ratio"},
	{"graph.load_ms", "ms"},
	{"graph.load_mb_per_s", "MB/s"},
	{"core.solve_ms", "ms"},
	{"core.enumerate_ms", "ms"},
	{"core.worklist_inserts", "count"},
	{"core.ns_per_insert", "ns"},
	{"core.allocs_per_insert", "count"},
	{"core.table_bytes", "bytes"},
	{"core.match_hit_ratio", "ratio"},
	{"rpq.convert_ms", "ms"},
	{"rpq.answers", "count"},
	{"service.overhead_ms", "ms"},
	{"service.response_kb", "KB"},
	{"service.rejected", "count"},
	{"service.queue_timeouts", "count"},
	{"gofront.lower_ms", "ms"},
	{"gocheck.solve_ms", "ms"},
	{"gofront.funcs_per_s", "1/s"},
	{"gofront.vertices", "count"},
	{"gofront.edges", "count"},
	{"gofront.single_load_ms", "ms"},
	{"gocheck.findings", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_pct", "%"},
	{"pattern.parse_share_pct", "%"},
	{"analyze.lint_share_pct", "%"},
	{"core.compile_share_pct", "%"},
	{"core.solve_share_pct", "%"},
	{"rpq.convert_share_pct", "%"},
	{"service.overhead_share_pct", "%"},
	{"client.decode_share_pct", "%"},
	{"gofront.lower_share_pct", "%"},
	{"gocheck.solve_share_pct", "%"},
	{"bench.self_share_pct", "%"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runCfg) (*outcome, error){
	"paper-solve": runPaper,
	"rpqd-mixed":  runRPQD,
	"gocheck-std": runGocheck,
}

//go:embed pins.json
var pinsJSON []byte

// pinFile holds what was fixed when the benchmark was defined: answer
// digests no oracle covers, and the gocheck-std corpus with the Go
// version and seed it was drawn under.
type pinFile struct {
	GoVersion  string            `json:"go_version"`
	CorpusSeed int64             `json:"corpus_seed"`
	Corpus     []corpusPin       `json:"corpus"`
	Answers    map[string]string `json:"answers"`
}

// corpusPin is one package of the gocheck-std corpus: its directory under
// $GOROOT/src and the digest of its findings.
type corpusPin struct {
	Dir      string `json:"dir"`
	Findings string `json:"findings"`
}

// runCfg is what a workload gets from the command line.
type runCfg struct {
	seed  int64
	dur   time.Duration
	tr    *tracer // nil in untraced runs
	guard *guard
	pins  *pinFile
}

// tracedRound returns the tracer for a traced round: a traced run
// alternates traced and untraced rounds, so it can report its own overhead.
func (c runCfg) tracedRound(round int) *tracer {
	if c.tr != nil && round%2 == 1 {
		return c.tr
	}
	return nil
}

// more reports whether a run goes on to another round: at least one round
// (one of each kind in a traced run), then until --seconds have passed and,
// in an untraced run, until the tail percentile has ten samples beyond it.
// Past five times --seconds a run stops regardless, and its summary line
// shows the shortfall.
func (c runCfg) more(round int, o *outcome, start time.Time) bool {
	minRounds := 1
	if c.tr != nil {
		minRounds = 2
	}
	el := time.Since(start)
	switch {
	case round < minRounds:
		return true
	case el >= 5*c.dur:
		return false
	}
	return el < c.dur || c.tr == nil && len(o.lat) < o.minSamples
}

// outcome is what a workload measured.
//
// A run is made of rounds, each the same work: one pass over the grid, the
// corpus or the rpqd client's script. latency_p50_ms, load_p50_ms and
// ops_per_s are medians over untraced rounds of each round's own median or
// rate, so a slowdown during a minority of rounds does not move them;
// latency_tail_ms pools every untraced sample. Every timing is scaled to
// the CPU time the hypervisor did not steal (see stopwatch).
type outcome struct {
	tailQ      float64 // the quantile latency_tail_ms reports
	minSamples int     // untraced samples that leave ten beyond tailQ
	setupS     []float64
	lat        []float64 // ms, operations in untraced rounds
	latTraced  []float64 // ms, operations in traced rounds
	loads      []float64 // ms, each untraced round's median load, or each set-up's catalog load
	rounds     []roundStat
	wall       time.Duration
	attempted  int
	failed     int
	failures   []string
	notes      []string // extra summary lines
	layers     map[string]float64

	// The round in progress.
	sw       stopwatch
	rtStart  rtSample
	curLat   []float64
	curLoads []float64
	curOps   int
	// Runtime counter deltas and operations of untraced rounds, for the
	// runtime.* metrics of a traced run: its traced rounds also run the
	// benchmark's probes, whose allocations are not the program's.
	rt    rtSample
	rtOps int
}

// roundStat is what an untraced round contributes to the end-to-end
// metrics.
type roundStat struct {
	p50    float64 // ms, median operation latency
	rawP50 float64 // ms, the same before the steal correction
	rate   float64 // completed operations per second
	stolen float64 // share of the host's demanded CPU time stolen
}

func newOutcome(tailQ float64) *outcome {
	return &outcome{tailQ: tailQ, minSamples: int(math.Ceil(10/(1-tailQ) - 1e-9)), layers: map[string]float64{}}
}

// record books one completed operation of the current round.
func (o *outcome) record(d time.Duration) {
	o.curOps++
	o.curLat = append(o.curLat, ms(d))
}

// recordLoad books one graph load of the current round; op says whether
// it was an operation of its own.
func (o *outcome) recordLoad(d time.Duration, op bool) {
	if op {
		o.curOps++
	}
	o.curLoads = append(o.curLoads, ms(d))
}

func (o *outcome) startRound() {
	o.curLat, o.curLoads, o.curOps = o.curLat[:0], o.curLoads[:0], 0
	o.rtStart = readRuntime()
	o.sw = startStopwatch()
}

// endRound closes the current round and scales its timings by the share
// of CPU time the hypervisor did not steal during it. An untraced round
// adds its samples to the end-to-end metrics and its runtime counter
// deltas to o.rt.
func (o *outcome) endRound(traced bool) {
	wall, kept := o.sw.read()
	for i := range o.curLat {
		o.curLat[i] *= kept
	}
	for i := range o.curLoads {
		o.curLoads[i] *= kept
	}
	if traced {
		o.latTraced = append(o.latTraced, o.curLat...)
		return
	}
	o.lat = append(o.lat, o.curLat...)
	if len(o.curLoads) > 0 {
		o.loads = append(o.loads, median(o.curLoads))
	}
	rt := readRuntime()
	o.rt.gcCycles += rt.gcCycles - o.rtStart.gcCycles
	o.rt.allocBytes += rt.allocBytes - o.rtStart.allocBytes
	o.rt.allocObjects += rt.allocObjects - o.rtStart.allocObjects
	o.rt.gcPauseSecs += rt.gcPauseSecs - o.rtStart.gcPauseSecs
	o.rtOps += o.curOps
	p50 := median(o.curLat)
	o.rounds = append(o.rounds, roundStat{
		p50:    p50,
		rawP50: ratio(p50, kept),
		rate:   ratio(float64(o.curOps), wall.Seconds()*kept),
		stolen: 1 - kept,
	})
}

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, msg)
	}
}

// layerAcc accumulates the solver counters of traced operations.
type layerAcc struct {
	parseUS, lintUS           []float64
	solve, enumerate, convert time.Duration
	compile, opTime           time.Duration
	ops                       int
	inserts, allocs           int64
	matchHits, matchCalls     int64
}

func (a *layerAcc) addCore(st rpq.Stats, allocs uint64) {
	a.solve += st.Phases.Solve.Wall
	a.enumerate += st.Phases.Enumerate.Wall
	a.inserts += int64(st.WorklistInserts)
	a.allocs += int64(allocs)
	a.matchHits += int64(st.MatchCacheHits)
	a.matchCalls += int64(st.MatchCalls)
}

// finishCore writes the core.* timing and ratio metrics.
func (a *layerAcc) finishCore(m map[string]float64) {
	n := float64(a.ops)
	m["core.solve_ms"] = ratio(ms(a.solve), n)
	m["core.enumerate_ms"] = ratio(ms(a.enumerate), n)
	m["core.ns_per_insert"] = ratio(float64(a.solve.Nanoseconds()), float64(a.inserts))
	m["core.allocs_per_insert"] = ratio(float64(a.allocs), float64(a.inserts))
	m["core.match_hit_ratio"] = ratio(float64(a.matchHits), float64(a.matchHits+a.matchCalls))
}

func pct(part, total time.Duration) float64 {
	return ratio(100*float64(part), float64(total))
}

func sumMS(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "workload: paper-solve, rpqd-mixed or gocheck-std")
		seed      = fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds   = fs.Float64("seconds", 20, "how long to measure")
		trace     = fs.Int("trace", 0, "1 = traced run: print per-layer metrics and write spans")
		out       = fs.String("out", ".bench_build", "directory for span files and the counter ledger")
		writePins = fs.String("write-pins", "", "recompute pinned digests and the gocheck-std corpus into this file, then exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *writePins != "" {
		if err := writePinFile(*writePins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	runtime.GOMAXPROCS(procs)
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	var pins pinFile
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pins.json:", err)
		return 1
	}
	cfg := runCfg{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), guard: newGuard(), pins: &pins}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	hash, err := binaryHash()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ledger := filepath.Join(*out, "ledger", *workload+"-"+hash+".json")
	if err := cfg.guard.loadLedger(ledger); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
		return 1
	}

	res, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line := resultLine{
		Correct:   res.failed == 0 && len(cfg.guard.errs) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	if cfg.tr == nil {
		e2e := endToEndValues(res)
		for _, d := range endToEnd {
			line.Metrics[d.name] = metricOut{finite(e2e[d.name]), d.unit}
		}
		var stolen, raw []float64
		for _, r := range res.rounds {
			stolen, raw = append(stolen, r.stolen), append(raw, r.rawP50)
		}
		fmt.Printf("%s seed=%d: %d operations in %d rounds, %.1fs; %d latency samples, %d beyond the tail p%g; %d set-ups; median round: %.1f%% of demanded CPU time stolen, latency p50 %.3f ms before correction\n",
			*workload, *seed, res.attempted, len(res.rounds), res.wall.Seconds(), len(res.lat),
			beyond(len(res.lat), res.tailQ), res.tailQ*100, len(res.setupS), 100*median(stolen), median(raw))
	} else {
		res.layers["trace.overhead_pct"] = 100 * (ratio(median(res.latTraced), median(res.lat)) - 1)
		for _, d := range perLayer {
			line.Metrics[d.name] = metricOut{finite(res.layers[d.name]), d.unit}
		}
		path := filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
		fmt.Printf("%s seed=%d: traced run, %d operations (%d traced, %d untraced); spans in %s\n",
			*workload, *seed, res.attempted, len(res.latTraced), len(res.lat), path)
	}
	if err := cfg.guard.saveLedger(ledger); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	for _, e := range cfg.guard.errs {
		fmt.Println("COUNTER MISMATCH:", e)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if len(cfg.guard.errs) > 0 {
		return 1
	}
	return 0
}

// finite maps NaN and infinities, which JSON cannot carry, to 0. They
// arise only when a run has no successful operation to measure, and such
// a run is not correct.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// endToEndValues turns an untraced run's samples into the end-to-end
// metrics.
func endToEndValues(o *outcome) map[string]float64 {
	var p50, rate []float64
	for _, r := range o.rounds {
		p50, rate = append(p50, r.p50), append(rate, r.rate)
	}
	return map[string]float64{
		"setup_s":         median(o.setupS),
		"ops_per_s":       median(rate),
		"latency_p50_ms":  median(p50),
		"latency_tail_ms": quantile(o.lat, o.tailQ),
		"load_p50_ms":     median(o.loads),
		"peak_rss_mb":     peakRSSMB(),
	}
}
