// Command svcsmoke is the query-service smoke test used by CI: it builds
// and boots cmd/rpqd with a small admission budget, preloads the repository
// CFG fixture, then drives the public API end to end — catalog CRUD, the
// three query kinds (existential with witnesses, universal, violations),
// lint-gate rejection, compiled-query-cache hits across a repeated-pattern
// workload, a burst above the admission limit (expecting fast 429s with
// Retry-After while every admitted query completes), cancellation of an
// in-flight query through the API, a fixed-traceparent round trip (the same
// trace ID must surface in the response headers, the in-flight snapshot, the
// slow-query log, the flight-recorder bundle, and the access log), the SLO
// burn-rate endpoint, the continuous-profiling surface (an rpq-prof/1 window
// list with solver frames under the rpq_kind=exist slice, a two-window diff,
// a flight-recorder bundle carrying the pinned window's profile.pb.gz, the
// /debug/rpq/ index, and histogram exemplars in both JSON and Prometheus
// exposition), the /metrics families (query counters, latency buckets,
// resource attribution, build info, runtime go_ gauges, a nonzero live
// rpq_reach_size) and the dashboard page, and a SIGTERM drain with a query
// still running (during which readyz must report 503 while healthz stays
// 200). The scraped /debug/rpq/ts document is validated as rpq-tsdb/1 and
// written to -out, the structured access log to -access-log, and a
// captured profile window to -prof-out so CI can archive all three. Any
// failed check exits nonzero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

var (
	base   string      // API base URL, set once rpqd is up
	daemon *os.Process // the rpqd under test; fail() kills it (os.Exit skips defers)
)

func main() {
	var (
		out       = flag.String("out", "", "write the scraped rpq-tsdb/1 document to this file")
		accessLog = flag.String("access-log", "", "write the daemon's NDJSON access log to this file")
		profOut   = flag.String("prof-out", "", "write a captured profile window (gzipped pprof) to this file")
		graph     = flag.String("graph", "testdata/queries/graph.txt", "fixture graph to preload")
		vertices  = flag.Int("vertices", 1000, "heavy-graph vertices (burst/cancel workload)")
		degree    = flag.Int("degree", 5, "heavy-graph out-degree")
		symbols   = flag.Int("symbols", 12, "heavy-graph symbol count")
	)
	flag.Parse()

	bin := buildRpqd()
	defer os.RemoveAll(filepath.Dir(bin))

	logPath := *accessLog
	if logPath == "" {
		logPath = filepath.Join(filepath.Dir(bin), "access.ndjson")
	}
	slowPath := filepath.Join(filepath.Dir(bin), "slow.ndjson")
	wdDir := filepath.Join(filepath.Dir(bin), "watchdog")

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-obs", "127.0.0.1:0",
		"-load", "g="+*graph,
		"-max-concurrent", "1",
		"-max-queue", "2",
		"-queue-wait", "100ms",
		"-drain-timeout", "10s",
		"-log", logPath,
		"-log-format", "json",
		"-slowlog", slowPath,
		"-slow", "50ms",
		"-watchdog", wdDir,
		"-watchdog-slow", "50ms",
		"-slo", "query:0.999:30s",
		"-prof",
		"-prof-window", "400ms",
		"-prof-interval", "600ms",
		"-prof-retain", "16",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fail("pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fail("start rpqd: %v", err)
	}
	daemon = cmd.Process
	defer cmd.Process.Kill()

	var obsBase string
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Println("[rpqd]", sc.Text())
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	for base == "" {
		select {
		case l, ok := <-lines:
			if !ok {
				fail("rpqd exited before listening")
			}
			if rest, found := strings.CutPrefix(l, "rpqd observability on "); found {
				obsBase = rest
			}
			if rest, found := strings.CutPrefix(l, "rpqd listening on "); found {
				base = rest
			}
		case <-deadline:
			fail("rpqd did not come up within 30s")
		}
	}

	checkReadyz()
	checkCatalogAndKinds()
	checkLintGate()
	checkCacheHits()
	loadHeavyGraph(*vertices, *degree, *symbols)
	checkBurst429()
	checkCancel()
	checkTraceRoundTrip(obsBase, slowPath, wdDir)
	checkSLO(obsBase)
	checkDebugIndex(obsBase)
	checkProf(obsBase, wdDir, *profOut)
	checkExemplars(obsBase)
	checkMetrics(obsBase)
	scrapeTS(obsBase, *out)
	checkDrain(cmd)
	checkAccessLog(logPath, *accessLog != "")

	fmt.Println("svcsmoke: all checks passed")
}

// buildRpqd compiles the daemon into a temp dir and returns the binary path.
func buildRpqd() string {
	dir, err := os.MkdirTemp("", "svcsmoke")
	if err != nil {
		fail("tmpdir: %v", err)
	}
	bin := filepath.Join(dir, "rpqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rpqd")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		fail("build rpqd: %v", err)
	}
	return bin
}

// ---- checks ----

func checkCatalogAndKinds() {
	// The preloaded fixture is listed.
	var listing struct {
		Graphs []struct {
			Name  string `json:"name"`
			Edges int    `json:"edges"`
		} `json:"graphs"`
	}
	getJSON("/api/v1/graphs", &listing)
	if len(listing.Graphs) != 1 || listing.Graphs[0].Name != "g" || listing.Graphs[0].Edges == 0 {
		fail("catalog listing: %+v", listing)
	}

	// Existential with witnesses: the possibly-uninitialized-use query has
	// answers on the fixture, each carrying a path from the start vertex.
	code, body := post("/api/v1/query",
		`{"graph":"g","kind":"exist","pattern":"(!def(x))* use(x)","options":{"witnesses":true}}`)
	if code != 200 {
		fail("exist: %d %s", code, body)
	}
	var qr struct {
		QueryID int64 `json:"query_id"`
		Answers []struct {
			Vertex   string           `json:"vertex"`
			Bindings []map[string]any `json:"bindings"`
			Witness  []map[string]any `json:"witness"`
		} `json:"answers"`
	}
	mustUnmarshal(body, &qr)
	if len(qr.Answers) == 0 || qr.QueryID == 0 {
		fail("exist shape: %s", body)
	}
	for _, a := range qr.Answers {
		if a.Vertex == "" || len(a.Bindings) == 0 || len(a.Witness) == 0 {
			fail("exist answer shape: %s", body)
		}
	}

	if code, body = post("/api/v1/query", `{"graph":"g","kind":"universal","pattern":"(!use(x))* def(x) _*"}`); code != 200 {
		fail("universal: %d %s", code, body)
	}
	if code, body = post("/api/v1/query",
		`{"graph":"g","kind":"violations","pattern":"(open(f) (access(f))* close(f))*","with_exit":true}`); code != 200 {
		fail("violations: %d %s", code, body)
	}

	// Unknown graphs 404.
	if code, body = post("/api/v1/query", `{"graph":"nope","pattern":"use(x)"}`); code != 404 {
		fail("unknown graph: %d %s", code, body)
	}
}

func checkLintGate() {
	code, body := post("/api/v1/query", `{"graph":"g","pattern":"!_ use(x)"}`)
	if code != 400 || !strings.Contains(body, "lint_rejected") || !strings.Contains(body, "RPQ001") {
		fail("lint gate: %d %s", code, body)
	}
}

func checkCacheHits() {
	// Acceptance criterion: a repeated-pattern workload shows cache hits
	// through the new gauges.
	for i := 0; i < 5; i++ {
		if code, body := post("/api/v1/query", `{"graph":"g","pattern":"(malloc(p) (!free(p))* deref(p))"}`); code != 200 {
			fail("repeat %d: %d %s", i, code, body)
		}
	}
	var stats struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	getJSON("/api/v1/stats", &stats)
	if stats.Cache.Hits < 4 {
		fail("cache hits = %d after repeated pattern, want >= 4", stats.Cache.Hits)
	}
	fmt.Printf("svcsmoke: cache %d hits / %d misses\n", stats.Cache.Hits, stats.Cache.Misses)
}

// loadHeavyGraph uploads a deterministic pseudo-random def/use graph big
// enough that one enumeration query holds its solve slot for a while.
func loadHeavyGraph(vertices, degree, symbols int) {
	var b bytes.Buffer
	fmt.Fprintln(&b, "start v0")
	seed := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	for v := 0; v < vertices; v++ {
		// A cycle keeps every vertex reachable; extra random edges fan out.
		fmt.Fprintf(&b, "edge v%d use(s%d) v%d\n", v, next(symbols), (v+1)%vertices)
		for d := 1; d < degree; d++ {
			fmt.Fprintf(&b, "edge v%d use(s%d) v%d\n", v, next(symbols), next(vertices))
		}
	}
	req, _ := http.NewRequest("PUT", base+"/api/v1/graphs/heavy", &b)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fail("load heavy: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		body, _ := io.ReadAll(resp.Body)
		fail("load heavy: %d %s", resp.StatusCode, body)
	}
}

// heavyQuery interleaves three parameters over the heavy graph's symbols —
// a combinatorial substitution space that holds its solve slot for a few
// hundred milliseconds (long enough to observe queue overflow and
// cancellation) while the trailing literals keep the answer set, and thus
// the response body, modest.
const heavyQuery = `{"graph":"heavy","pattern":"(use(x) | use(y) | use(z))* use(x) use(y) use(z)"}`

func checkBurst429() {
	const burst = 12
	type outcome struct {
		code       int
		retryAfter string
	}
	var wg sync.WaitGroup
	outcomes := make([]outcome, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/api/v1/query", "application/json", strings.NewReader(heavyQuery))
			if err != nil {
				fail("burst %d: %v", i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	wg.Wait()
	ok, rejected := 0, 0
	for i, o := range outcomes {
		switch o.code {
		case 200:
			ok++
		case 429:
			rejected++
			if o.retryAfter == "" {
				fail("burst %d: 429 without Retry-After", i)
			}
		default:
			fail("burst %d: unexpected status %d", i, o.code)
		}
	}
	// One solve slot, two queue slots, 100ms queue wait against a burst of
	// 12 long solves: the bulk must bounce, the admitted must complete.
	if ok < 1 || rejected < burst/2 || ok+rejected != burst {
		fail("burst outcome: %d ok, %d rejected of %d", ok, rejected, burst)
	}
	fmt.Printf("svcsmoke: burst %d ok / %d rejected (429)\n", ok, rejected)
}

func checkCancel() {
	// A long solve is canceled through the API; its own request returns 499.
	for attempt := 0; attempt < 5; attempt++ {
		type result struct {
			code int
			body string
		}
		done := make(chan result, 1)
		go func() {
			code, body := post("/api/v1/query", heavyQuery)
			done <- result{code, body}
		}()

		// Find its id in the in-flight listing and cancel it.
		var id int64
	poll:
		for i := 0; i < 500; i++ {
			var listing struct {
				Queries []struct {
					ID int64 `json:"id"`
				} `json:"queries"`
			}
			select {
			case r := <-done:
				// Finished before we could cancel; retry with a fresh run.
				fmt.Printf("svcsmoke: cancel attempt %d finished early (%d)\n", attempt, r.code)
				break poll
			default:
			}
			getJSON("/api/v1/queries", &listing)
			if len(listing.Queries) > 0 {
				id = listing.Queries[0].ID
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if id == 0 {
			continue
		}
		code, body := post(fmt.Sprintf("/api/v1/queries/%d/cancel", id), "")
		if code != 202 {
			fail("cancel request: %d %s", code, body)
		}
		r := <-done
		if r.code != 499 || !strings.Contains(r.body, "canceled") {
			fail("canceled query: %d %s", r.code, r.body)
		}
		fmt.Printf("svcsmoke: canceled query %d -> 499\n", id)
		return
	}
	fail("cancel: query finished before cancellation in every attempt")
}

// checkReadyz asserts the readiness probe goes green once the daemon reports
// listening. rpqd flips it right after the API listener starts, a hair after
// the "listening" line prints, so tolerate a brief 503.
func checkReadyz() {
	var last string
	for i := 0; i < 500; i++ {
		resp, err := http.Get(base + "/api/v1/readyz")
		if err != nil {
			fail("readyz: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 200 && strings.Contains(string(body), `"ready"`) {
			return
		}
		last = fmt.Sprintf("%d %s", resp.StatusCode, body)
		time.Sleep(2 * time.Millisecond)
	}
	fail("readyz never went ready: %s", last)
}

// fixedTraceparent is the W3C trace context svcsmoke injects: the trace ID
// must round-trip unchanged through every telemetry surface.
const (
	fixedTraceparent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	fixedTraceID     = "0123456789abcdef0123456789abcdef"
)

// checkTraceRoundTrip sends a long query with a fixed traceparent and asserts
// the same trace ID surfaces in the response headers, the observability
// plane's in-flight snapshot while the query runs, the slow-query log record,
// and the flight-recorder bundle's meta.json after it completes. (The access
// log is validated separately at the end of the run.)
func checkTraceRoundTrip(obsBase, slowPath, wdDir string) {
	type result struct {
		code, tpLen              int
		traceID, tp, reqID, body string
	}
	for attempt := 0; attempt < 5; attempt++ {
		done := make(chan result, 1)
		go func() {
			req, _ := http.NewRequest("POST", base+"/api/v1/query", strings.NewReader(heavyQuery))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("traceparent", fixedTraceparent)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				fail("trace query: %v", err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			tp := resp.Header.Get("traceparent")
			done <- result{resp.StatusCode, len(tp), resp.Header.Get("X-RPQ-Trace-Id"),
				tp, resp.Header.Get("X-RPQ-Request-Id"), string(raw)}
		}()

		// While the query runs, its snapshot on the observability plane must
		// carry the injected trace ID.
		var r result
		received, seen := false, false
		for i := 0; i < 500 && !seen && !received; i++ {
			select {
			case r = <-done:
				received = true
			default:
				var listing struct {
					Queries []struct {
						TraceID string `json:"trace_id"`
					} `json:"queries"`
				}
				getJSONURL(obsBase+"/debug/rpq/queries", &listing)
				for _, q := range listing.Queries {
					if q.TraceID == fixedTraceID {
						seen = true
					}
				}
				if !seen {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}
		if !received {
			r = <-done
		}
		if r.code != 200 {
			fail("trace query: %d %s", r.code, r.body)
		}
		if r.traceID != fixedTraceID {
			fail("X-RPQ-Trace-Id = %q, want %q", r.traceID, fixedTraceID)
		}
		if !strings.HasPrefix(r.tp, "00-"+fixedTraceID+"-") || r.tpLen != len(fixedTraceparent) {
			fail("traceparent response header = %q", r.tp)
		}
		if r.reqID == "" {
			fail("response missing X-RPQ-Request-Id")
		}
		if !seen {
			fmt.Printf("svcsmoke: trace attempt %d finished before the in-flight poll; retrying\n", attempt)
			continue
		}

		// The query ran well past the 50ms slow threshold, so by the time the
		// response was written the slow log and a flight-recorder bundle both
		// carry the trace.
		slow, err := os.ReadFile(slowPath)
		if err != nil || !strings.Contains(string(slow), fixedTraceID) {
			fail("slow log %s does not carry trace %s (err=%v)", slowPath, fixedTraceID, err)
		}
		found := false
		filepath.WalkDir(wdDir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || d.Name() != "meta.json" {
				return nil
			}
			if meta, err := os.ReadFile(path); err == nil && strings.Contains(string(meta), fixedTraceID) {
				found = true
			}
			return nil
		})
		if !found {
			fail("no flight-recorder bundle under %s carries trace %s", wdDir, fixedTraceID)
		}
		fmt.Println("svcsmoke: traceparent round-trip verified (headers, in-flight, slow log, bundle)")
		return
	}
	fail("trace: query finished before the in-flight snapshot in every attempt")
}

// checkSLO polls the burn-rate endpoint until the query route's objective has
// a usable window (the counters flow through the 1s tsdb cadence, so the
// first usable delta needs two snapshots).
func checkSLO(obsBase string) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		var doc struct {
			Schema string `json:"schema"`
			SLOs   []struct {
				Route     string  `json:"route"`
				Objective float64 `json:"objective"`
				Windows   []struct {
					Window   string  `json:"window"`
					Total    int64   `json:"total"`
					Bad      int64   `json:"bad"`
					BurnRate float64 `json:"burn_rate"`
				} `json:"windows"`
				BudgetRemaining float64 `json:"error_budget_remaining"`
			} `json:"slos"`
		}
		getJSONURL(obsBase+"/debug/rpq/slo", &doc)
		if doc.Schema != "rpq-slo/1" {
			fail("slo schema = %q", doc.Schema)
		}
		for _, s := range doc.SLOs {
			if s.Route != "query" {
				continue
			}
			for _, w := range s.Windows {
				if w.Total > 0 {
					fmt.Printf("svcsmoke: slo query objective=%.3f window=%s total=%d bad=%d burn=%.2f budget=%.3f\n",
						s.Objective, w.Window, w.Total, w.Bad, w.BurnRate, s.BudgetRemaining)
					return
				}
			}
		}
		if time.Now().After(deadline) {
			fail("slo: no usable window for route \"query\" within 15s")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// checkDebugIndex validates the /debug/rpq/ index document: it must use the
// rpq-debug/1 schema and enumerate the profiling surface as enabled.
func checkDebugIndex(obsBase string) {
	var doc struct {
		Schema   string `json:"schema"`
		Surfaces []struct {
			Path    string `json:"path"`
			Desc    string `json:"desc"`
			Enabled bool   `json:"enabled"`
		} `json:"surfaces"`
	}
	getJSONURL(obsBase+"/debug/rpq/", &doc)
	if doc.Schema != "rpq-debug/1" {
		fail("debug index schema = %q", doc.Schema)
	}
	profListed := false
	for _, s := range doc.Surfaces {
		if s.Desc == "" {
			fail("debug index surface %s has no description", s.Path)
		}
		if s.Path == "/debug/rpq/prof" {
			profListed = true
			if !s.Enabled {
				fail("debug index lists /debug/rpq/prof as disabled with -prof on")
			}
		}
	}
	if !profListed || len(doc.Surfaces) < 8 {
		fail("debug index surfaces incomplete: %+v", doc.Surfaces)
	}
	fmt.Printf("svcsmoke: debug index lists %d surfaces (prof enabled)\n", len(doc.Surfaces))
}

// checkProf drives the continuous-profiling surface end to end: heavy exist
// queries run until a capture window holds samples labeled rpq_kind=exist,
// the kind-sliced view must show a solver frame under that slice, a
// two-window diff must work, the watchdog bundles written for those slow
// queries must carry the pinned window's profile, and the captured window is
// archived to -prof-out for CI.
func checkProf(obsBase, wdDir, out string) {
	type window struct {
		ID       int64               `json:"id"`
		CPUBytes int                 `json:"cpu_bytes"`
		Err      string              `json:"error"`
		Labels   map[string][]string `json:"labels"`
	}
	var doc struct {
		Schema   string   `json:"schema"`
		WindowMS int64    `json:"window_ms"`
		Windows  []window `json:"windows"`
	}

	// The daemon captures 400ms windows every 600ms, so a ~300ms solve per
	// iteration quickly lands samples in some window.
	var existWin int64 = -1
	deadline := time.Now().Add(45 * time.Second)
	for existWin < 0 {
		if time.Now().After(deadline) {
			fail("no profile window captured rpq_kind=exist samples within 45s")
		}
		if code, body := post("/api/v1/query", heavyQuery); code != 200 {
			fail("prof workload query: %d %s", code, body)
		}
		getJSONURL(obsBase+"/debug/rpq/prof", &doc)
		if doc.Schema != "rpq-prof/1" {
			fail("prof schema = %q", doc.Schema)
		}
		if doc.WindowMS != 400 {
			fail("prof window_ms = %d, want 400", doc.WindowMS)
		}
		for _, w := range doc.Windows {
			for _, k := range w.Labels["rpq_kind"] {
				if k == "exist" {
					existWin = w.ID
				}
			}
		}
	}

	// Kind-sliced aggregation: the exist slice's frames are solver frames.
	var wdoc struct {
		Value  string `json:"value_type"`
		Slices []struct {
			Value  string `json:"value"`
			Total  int64  `json:"total"`
			Frames []struct {
				Func string `json:"func"`
			} `json:"frames"`
		} `json:"slices"`
	}
	getJSONURL(fmt.Sprintf("%s/debug/rpq/prof?window=%d&by=rpq_kind", obsBase, existWin), &wdoc)
	if wdoc.Value != "cpu" {
		fail("prof window value type = %q", wdoc.Value)
	}
	solver := false
	for _, s := range wdoc.Slices {
		if s.Value != "exist" {
			continue
		}
		for _, f := range s.Frames {
			if strings.Contains(f.Func, "rpq/internal/core.") {
				solver = true
			}
		}
	}
	if !solver {
		fail("rpq_kind=exist slice of window %d has no rpq/internal/core frame: %+v", existWin, wdoc.Slices)
	}

	// Baseline diffing between two retained windows.
	var other int64 = -1
	for _, w := range doc.Windows {
		if w.ID != existWin && w.CPUBytes > 0 {
			other = w.ID
		}
	}
	if other >= 0 {
		var ddoc struct {
			Schema string `json:"schema"`
			A      int64  `json:"a"`
			B      int64  `json:"b"`
			Diff   struct {
				Frames []struct {
					DeltaFlat int64 `json:"delta_flat"`
					DeltaCum  int64 `json:"delta_cum"`
				} `json:"frames"`
			} `json:"diff"`
		}
		getJSONURL(fmt.Sprintf("%s/debug/rpq/prof/diff?a=%d&b=%d", obsBase, existWin, other), &ddoc)
		if ddoc.Schema != "rpq-prof/1" || ddoc.A != existWin || ddoc.B != other {
			fail("prof diff %d vs %d: schema %q a=%d b=%d", existWin, other, ddoc.Schema, ddoc.A, ddoc.B)
		}
		nonzero := false
		for _, f := range ddoc.Diff.Frames {
			if f.DeltaFlat != 0 || f.DeltaCum != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			fail("prof diff %d vs %d returned no frames with nonzero deltas", existWin, other)
		}
	}

	// The slow queries above tripped the watchdog while captures were in
	// flight, so at least one bundle links a pinned window and embeds its
	// profile bytes.
	withProfile := false
	filepath.WalkDir(wdDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "profile.pb.gz" {
			return nil
		}
		meta, merr := os.ReadFile(filepath.Join(filepath.Dir(path), "meta.json"))
		if merr == nil && strings.Contains(string(meta), `"profile_window"`) {
			withProfile = true
		}
		return nil
	})
	if !withProfile {
		fail("no flight-recorder bundle under %s embeds a profile window", wdDir)
	}

	// Archive the labeled window for CI.
	if out != "" {
		resp, err := http.Get(fmt.Sprintf("%s/debug/rpq/prof/download?window=%d", obsBase, existWin))
		if err != nil {
			fail("prof download: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || len(raw) == 0 {
			fail("prof download: %d (%d bytes)", resp.StatusCode, len(raw))
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			fail("write %s: %v", out, err)
		}
		fmt.Printf("svcsmoke: wrote %s (%d bytes, window %d)\n", out, len(raw), existWin)
	}
	fmt.Printf("svcsmoke: prof window %d sliced by rpq_kind, diffed, and linked into a bundle\n", existWin)
}

// checkExemplars asserts the latency histogram's top buckets carry trace IDs
// in both the JSON surface and the Prometheus exposition.
func checkExemplars(obsBase string) {
	var doc struct {
		Exemplars []struct {
			TraceID string  `json:"trace_id"`
			ValueMS float64 `json:"value_ms"`
		} `json:"exemplars"`
	}
	getJSONURL(obsBase+"/debug/rpq/exemplars", &doc)
	if len(doc.Exemplars) == 0 {
		fail("no exemplars after a traced query workload")
	}
	for _, e := range doc.Exemplars {
		if len(e.TraceID) != 32 || e.ValueMS <= 0 {
			fail("malformed exemplar: %+v", e)
		}
	}

	found := false
	for _, line := range strings.Split(getText(obsBase+"/metrics"), "\n") {
		if strings.Contains(line, "_hist_bucket") && strings.Contains(line, `# {trace_id="`) {
			found = true
		}
	}
	if !found {
		fail("no exemplar on any _hist_bucket line in /metrics")
	}
	fmt.Printf("svcsmoke: %d exemplars in JSON, exposition carries trace IDs\n", len(doc.Exemplars))
}

// checkMetrics asserts the Prometheus exposition after the workload carries
// the query counter, the latency histogram buckets, the resource-attribution
// totals, the build info and the runtime sampler's go_ gauges, and that
// rpq_reach_size is nonzero: the live solver gauges are written from each
// run's Progress snapshots and end-of-run stats. It also checks that the
// dashboard page is served.
func checkMetrics(obsBase string) {
	metrics := getText(obsBase + "/metrics")
	for _, want := range []string{
		"rpq_queries_total",
		"rpq_query_seconds_hist_bucket{le=",
		"rpq_cpu_us_total",
		"rpq_alloc_bytes_total",
		"rpq_build_info{",
		"go_goroutines",
		"go_heap_live_bytes",
	} {
		if !strings.Contains(metrics, want) {
			fail("/metrics: missing %q", want)
		}
	}
	reach := ""
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "rpq_reach_size "); ok {
			reach = v
		}
	}
	if reach == "" || reach == "0" {
		fail("/metrics: rpq_reach_size = %q after the workload, want nonzero", reach)
	}
	dash := getText(obsBase + "/debug/rpq/dash")
	if !strings.Contains(dash, "rpq live dashboard") || !strings.Contains(dash, "/debug/rpq/ts") {
		fail("/debug/rpq/dash: not the dashboard page")
	}
	fmt.Printf("svcsmoke: /metrics complete (rpq_reach_size %s), dashboard served\n", reach)
}

// scrapeTS archives the observability time-series window and validates the
// rpq-tsdb/1 document: points within the retention bound and equal to the
// timestamp count, timestamps nondecreasing, every series column aligned,
// the service gauges present, and rpq_queries_total advanced.
func scrapeTS(obsBase, out string) {
	raw := getText(obsBase + "/debug/rpq/ts")
	var doc struct {
		Schema          string                   `json:"schema"`
		RetentionPoints int                      `json:"retention_points"`
		Points          int                      `json:"points"`
		TimestampsMS    []int64                  `json:"timestamps_ms"`
		Series          map[string][]json.Number `json:"series"`
	}
	mustUnmarshal(raw, &doc)
	if doc.Schema != "rpq-tsdb/1" {
		fail("ts schema = %q", doc.Schema)
	}
	if doc.Points < 1 {
		fail("ts window is empty")
	}
	if doc.Points > doc.RetentionPoints {
		fail("ts points=%d exceeds retention_points=%d", doc.Points, doc.RetentionPoints)
	}
	if doc.Points != len(doc.TimestampsMS) {
		fail("ts points=%d but %d timestamps", doc.Points, len(doc.TimestampsMS))
	}
	for i := 1; i < len(doc.TimestampsMS); i++ {
		if doc.TimestampsMS[i] < doc.TimestampsMS[i-1] {
			fail("ts timestamps not nondecreasing at %d", i)
		}
	}
	for name, col := range doc.Series {
		if len(col) != doc.Points {
			fail("%s column has %d points, want %d (misaligned)", name, len(col), doc.Points)
		}
	}
	for _, name := range []string{"rpq_svc_admitted_total", "rpq_svc_rejected_total", "rpq_qcache_hits_total", "rpq_queries_total"} {
		if _, ok := doc.Series[name]; !ok {
			fail("%s missing from ts series", name)
		}
	}
	if qt := doc.Series["rpq_queries_total"]; qt[len(qt)-1] == "" || qt[len(qt)-1] == "0" {
		fail("ts rpq_queries_total never advanced")
	}
	if out != "" {
		if err := os.WriteFile(out, []byte(raw), 0o644); err != nil {
			fail("write %s: %v", out, err)
		}
		fmt.Printf("svcsmoke: wrote %s (%d bytes, %d series)\n", out, len(raw), len(doc.Series))
	}
}

// checkDrain sends SIGTERM with a query still in flight: readiness must flip
// to 503 while liveness stays 200, the query must complete (the drain budget
// is generous), and the process must exit zero.
func checkDrain(cmd *exec.Cmd) {
	done := make(chan int, 1)
	go func() {
		code, _ := post("/api/v1/query", heavyQuery)
		done <- code
	}()
	// Wait until the query is actually in flight before pulling the plug.
	for i := 0; i < 500; i++ {
		var listing struct {
			Queries []json.RawMessage `json:"queries"`
		}
		getJSON("/api/v1/queries", &listing)
		if len(listing.Queries) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("SIGTERM: %v", err)
	}
	// The drain starts a moment after the signal lands; poll readyz until it
	// reports 503 (the in-flight query holds the drain open long enough).
	readyFlipped := false
	for i := 0; i < 500 && !readyFlipped; i++ {
		resp, err := http.Get(base + "/api/v1/readyz")
		if err != nil {
			fail("readyz during drain: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case 200:
			time.Sleep(2 * time.Millisecond)
		case 503:
			if !strings.Contains(string(body), "not_ready") {
				fail("readyz during drain: 503 body %s", body)
			}
			readyFlipped = true
		default:
			fail("readyz during drain: %d %s", resp.StatusCode, body)
		}
	}
	if !readyFlipped {
		fail("readyz never flipped to 503 during drain")
	}
	// Liveness is unaffected: healthz still answers 200 mid-drain.
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	getJSON("/api/v1/healthz", &health)
	if health.Status != "ok" {
		fail("healthz during drain: %+v", health)
	}
	if code := <-done; code != 200 {
		fail("in-flight query during drain: %d, want 200", code)
	}
	if err := cmd.Wait(); err != nil {
		fail("rpqd exit: %v", err)
	}
	fmt.Println("svcsmoke: drained (readyz 503, healthz 200) and exited clean")
}

// checkAccessLog validates the daemon's NDJSON access log line by line after
// the run: every line must parse as JSON and carry the schema fields, the
// fixed-traceparent query must appear with the injected trace ID and its
// query annotations, and the heavy-graph PUT must have left an audit line.
func checkAccessLog(path string, keep bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("read access log: %v", err)
	}
	type logLine struct {
		Time      string  `json:"time"`
		Level     string  `json:"level"`
		Msg       string  `json:"msg"`
		Stream    string  `json:"stream"`
		Route     string  `json:"route"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		DurMS     float64 `json:"dur_ms"`
		RequestID string  `json:"request_id"`
		TraceID   string  `json:"trace_id"`
		SpanID    string  `json:"span_id"`
		Kind      string  `json:"kind"`
		Graph     string  `json:"graph"`
		Admission string  `json:"admission"`
		CPUNS     int64   `json:"cpu_ns"`
		Action    string  `json:"action"`
		Result    string  `json:"result"`
	}
	var access, audit, traced int
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var l logLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			fail("access log line %d is not JSON: %v: %s", n, err, line)
		}
		if l.Time == "" || l.Level == "" || l.Msg == "" {
			fail("access log line %d missing slog envelope: %s", n, line)
		}
		switch l.Stream {
		case "access":
			access++
			if l.Route == "" || l.Method == "" || l.Path == "" || l.Status == 0 ||
				l.RequestID == "" || len(l.TraceID) != 32 || len(l.SpanID) != 16 {
				fail("access log line %d missing schema fields: %s", n, line)
			}
			if l.TraceID == fixedTraceID && l.Route == "query" {
				traced++
				if l.Status != 200 || l.Kind != "exist" || l.Graph != "heavy" ||
					l.Admission != "ok" || l.CPUNS <= 0 {
					fail("traced access line lacks query annotations: %s", line)
				}
			}
		case "audit":
			audit++
			if l.Action == "" || l.Graph == "" || l.Result == "" || l.RequestID == "" {
				fail("audit log line %d missing schema fields: %s", n, line)
			}
		default:
			fail("access log line %d has unknown stream %q: %s", n, l.Stream, line)
		}
	}
	if access < 10 {
		fail("access log has only %d access lines", access)
	}
	if traced == 0 {
		fail("access log has no line for trace %s on route query", fixedTraceID)
	}
	if audit == 0 {
		fail("access log has no audit line for the heavy-graph load")
	}
	where := path
	if !keep {
		where = fmt.Sprintf("%s (temporary)", path)
	}
	fmt.Printf("svcsmoke: access log valid: %d access / %d audit lines, traced query present (%s)\n",
		access, audit, where)
}

// ---- HTTP helpers ----

func post(path, body string) (int, string) {
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		fail("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// getText GETs url and returns its body, failing on any status but 200.
func getText(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		fail("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		fail("GET %s: %d %s %v", url, resp.StatusCode, raw, err)
	}
	return string(raw)
}

func getJSON(path string, v any) {
	getJSONURL(base+path, v)
}

func getJSONURL(url string, v any) {
	mustUnmarshal(getText(url), v)
}

func mustUnmarshal(s string, v any) {
	if err := json.Unmarshal([]byte(s), v); err != nil {
		fail("decode %q: %v", s, err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "svcsmoke: FAIL: "+format+"\n", args...)
	if daemon != nil {
		daemon.Kill()
	}
	os.Exit(1)
}
