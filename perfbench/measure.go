package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rpq"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that ran from start to end and returns its ID.
func (t *tracer) add(name string, op, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// reserve returns the ID a parent span will carry, so children can be
// recorded before their parent ends.
func (t *tracer) reserve(name string, op, parent int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: int64(len(t.spans) + 1), Parent: parent, Op: op})
	return int64(len(t.spans))
}

// finish sets the interval of a reserved span.
func (t *tracer) finish(id int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
}

// write dumps the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, over the spans under roots named root. It also returns
// the total duration of those roots.
func (t *tracer) selfTimes(root string) (map[string]time.Duration, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := map[string]time.Duration{}
	total := time.Duration(0)
	var walk func(id int64)
	walk = func(id int64) {
		s := t.spans[id-1]
		d := s.dur()
		for _, c := range children[id] {
			d -= t.spans[c-1].dur()
			walk(c)
		}
		self[s.Name] += d
	}
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			total += s.dur()
			walk(s.ID)
		}
	}
	return self, total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples of n that lie above the q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs,
// falling back to the Go runtime's total obtained memory elsewhere.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// hostCPU reads, from the first line of /proc/stat, the host's CPU time
// since boot in USER_HZ ticks: busy (user, nice, system, irq, softirq) and
// stolen (runnable, but the hypervisor ran something else). It reads
// zeros where there is no such file.
func hostCPU() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [9]float64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseFloat(f[i], 64); err != nil {
			return 0, 0
		}
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8]
}

// stopwatch times an interval and the host CPU time spent and stolen
// during it.
//
// The benchmark runs on shared virtual machines, where the hypervisor
// takes a varying share of the CPU time the guest asks for. A guest whose
// CPU time is stolen runs slower by that share, whatever the program does,
// so every timing the benchmark reports is multiplied by the share that
// was not stolen: the time the interval would have taken on an uncontended
// host, to the extent steal was spread evenly over it. The summary line
// prints the stolen share and the uncorrected latency median.
type stopwatch struct {
	t0          time.Time
	busy, steal float64
}

func startStopwatch() stopwatch {
	w := stopwatch{}
	w.busy, w.steal = hostCPU()
	w.t0 = time.Now()
	return w
}

// read returns the wall time since the start and the share of the host's
// demanded CPU time that was not stolen meanwhile.
func (w stopwatch) read() (time.Duration, float64) {
	wall := time.Since(w.t0)
	busy, steal := hostCPU()
	busy, steal = busy-w.busy, steal-w.steal
	return wall, 1 - ratio(steal, busy+steal)
}

// seconds returns the steal-corrected seconds since the start.
func (w stopwatch) seconds() float64 {
	wall, kept := w.read()
	return wall.Seconds() * kept
}

// rtSample is a runtime/metrics snapshot of the counters the runtime.*
// layer metrics are deltas of.
type rtSample struct {
	gcCycles     uint64
	allocBytes   uint64
	allocObjects uint64
	gcPauseSecs  float64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := rtSample{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocObjects = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.gcPauseSecs = histSum(s[3].Value.Float64Histogram())
	}
	return out
}

// allocObjects reads only the heap allocation object count, for deltas
// around a single call.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// histSum approximates the sum of a runtime histogram from its bucket
// midpoints (open-ended buckets use their finite edge).
func histSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			sum += float64(c) * hi
		case math.IsInf(hi, 1):
			sum += float64(c) * lo
		default:
			sum += float64(c) * (lo + hi) / 2
		}
	}
	return sum
}

// runtimeLayer turns the runtime counters' deltas over a run's untraced
// rounds into the runtime.* per-layer metrics, per operation.
func runtimeLayer(m map[string]float64, o *outcome) {
	n := float64(o.rtOps)
	m["runtime.gc_cycles_per_op"] = ratio(float64(o.rt.gcCycles), n)
	m["runtime.gc_pause_ms"] = ratio(o.rt.gcPauseSecs*1e3, n)
	m["runtime.alloc_mb_per_op"] = ratio(float64(o.rt.allocBytes)/(1<<20), n)
}

// answerLine renders one answer canonically: vertex, then bindings sorted
// by parameter.
func answerLine(vertex string, params, symbols []string) string {
	idx := make([]int, len(params))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return params[idx[a]] < params[idx[b]] })
	var b strings.Builder
	b.WriteString(vertex)
	for _, i := range idx {
		b.WriteByte('\t')
		b.WriteString(params[i])
		b.WriteByte('=')
		b.WriteString(symbols[i])
	}
	return b.String()
}

// digestLines hashes a set of canonical lines, order-independently.
func digestLines(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultDigest is the digest of a library result's answer set.
func resultDigest(res *rpq.Result) string {
	lines := make([]string, len(res.Answers))
	for i, a := range res.Answers {
		ps := make([]string, len(a.Bindings))
		ss := make([]string, len(a.Bindings))
		for j, b := range a.Bindings {
			ps[j], ss[j] = b.Param, b.Symbol
		}
		lines[i] = answerLine(a.Vertex, ps, ss)
	}
	return digestLines(lines)
}

// guard enforces the exact-counter rule: a deterministic counter recorded
// under the same key must read the same every time, within a run and
// across runs of the same binary (through the ledger file).
type guard struct {
	mu     sync.Mutex
	seen   map[string]int64
	ledger map[string]int64
	errs   []string
}

func newGuard() *guard { return &guard{seen: map[string]int64{}, ledger: map[string]int64{}} }

// check records v under key and reports a mismatch with an earlier value.
func (g *guard) check(key string, v int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if old, ok := g.seen[key]; ok {
		if old != v && len(g.errs) < 20 {
			g.errs = append(g.errs, fmt.Sprintf("%s: %d, earlier %d", key, v, old))
		}
		return
	}
	g.seen[key] = v
	if old, ok := g.ledger[key]; ok && old != v && len(g.errs) < 20 {
		g.errs = append(g.errs, fmt.Sprintf("%s: %d, earlier run %d", key, v, old))
	}
}

// loadLedger reads the counters earlier runs of this binary recorded.
func (g *guard) loadLedger(path string) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(b, &g.ledger)
}

// saveLedger merges this run's counters into the ledger file.
func (g *guard) saveLedger(path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, v := range g.seen {
		g.ledger[k] = v
	}
	b, err := json.Marshal(g.ledger)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// binaryHash identifies the running benchmark binary, so counter ledgers
// are only ever compared between runs of the same code.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16], nil
}
