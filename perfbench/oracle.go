package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rpq/internal/lts"
)

// The oracles below compute expected answer sets straight from the bytes
// the benchmark hands to the program, without the solver, the graph
// package or the pattern compiler, so a wrong answer cannot also corrupt
// its own check.

// textEdge is one edge of a graph in the textual format, with its label
// split into constructor and arguments.
type textEdge struct {
	from, to string
	ctor     string
	args     []string
}

// parseText reads the textual graph format: "start v" and "edge a label b".
func parseText(src []byte) (start string, edges []textEdge, err error) {
	sc := bufio.NewScanner(bytes.NewReader(src))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
		case f[0] == "start" && len(f) == 2:
			start = f[1]
		case f[0] == "edge" && len(f) == 4:
			lbl := f[2]
			open := strings.IndexByte(lbl, '(')
			if open < 0 || !strings.HasSuffix(lbl, ")") {
				return "", nil, fmt.Errorf("oracle: label %q is not a constructor application", lbl)
			}
			e := textEdge{from: f[1], to: f[3], ctor: lbl[:open]}
			if inner := lbl[open+1 : len(lbl)-1]; inner != "" {
				for _, a := range strings.Split(inner, ",") {
					e.args = append(e.args, strings.Trim(a, "'"))
				}
			}
			edges = append(edges, e)
		default:
			return "", nil, fmt.Errorf("oracle: unexpected line %q", sc.Text())
		}
	}
	return start, edges, sc.Err()
}

// uninitOracle answers the forward uninitialized-use queries
// "(!def(x))* use(x,_)" (alsoUse false) and
// "(!(def(x)|use(x,_)))* use(x,_)" (alsoUse true) by one breadth-first
// search per variable over the edges the star admits.
func uninitOracle(src []byte, alsoUse bool) (string, error) {
	start, edges, err := parseText(src)
	if err != nil {
		return "", err
	}
	out := map[string][]textEdge{}
	vars := map[string]bool{}
	for _, e := range edges {
		out[e.from] = append(out[e.from], e)
		if e.ctor == "use" && len(e.args) == 2 {
			vars[e.args[0]] = true
		}
	}
	names := make([]string, 0, len(vars))
	for x := range vars {
		names = append(names, x)
	}
	sort.Strings(names)
	var lines []string
	for _, x := range names {
		isUse := func(e textEdge) bool { return e.ctor == "use" && len(e.args) == 2 && e.args[0] == x }
		blocked := func(e textEdge) bool {
			return (e.ctor == "def" && len(e.args) == 1 && e.args[0] == x) || (alsoUse && isUse(e))
		}
		seen := map[string]bool{start: true}
		queue := []string{start}
		hits := map[string]bool{}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range out[v] {
				if isUse(e) {
					hits[e.to] = true
				}
				if !blocked(e) && !seen[e.to] {
					seen[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
		for v := range hits {
			lines = append(lines, answerLine(v, []string{"x"}, []string{x}))
		}
	}
	return digestLines(lines), nil
}

// deadlockOracle answers "_* state(s) act(_)" on the existential form of
// an AUT document: every transition leaving a reachable state s yields the
// answer (target, s). It also checks that the bound states are exactly the
// reachable states minus lts.DeadlockStates.
func deadlockOracle(aut []byte, l *lts.LTS) (string, error) {
	sc := bufio.NewScanner(bytes.NewReader(aut))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	if !sc.Scan() {
		return "", fmt.Errorf("oracle: empty AUT document")
	}
	var initial, ntrans, nstates int
	if _, err := fmt.Sscanf(sc.Text(), "des (%d, %d, %d)", &initial, &ntrans, &nstates); err != nil {
		return "", fmt.Errorf("oracle: AUT header: %w", err)
	}
	adj := make([][]int, nstates)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		first := strings.IndexByte(line, ',')
		last := strings.LastIndexByte(line, ',')
		if !strings.HasPrefix(line, "(") || first < 0 || last <= first {
			return "", fmt.Errorf("oracle: AUT line %q", line)
		}
		from, err1 := strconv.Atoi(strings.TrimSpace(line[1:first]))
		to, err2 := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(line[last+1:], ")")))
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("oracle: AUT line %q", line)
		}
		adj[from] = append(adj[from], to)
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	seen := make([]bool, nstates)
	seen[initial] = true
	stack := []int{initial}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	dead := map[int]bool{}
	for _, d := range l.DeadlockStates() {
		dead[int(d)] = true
	}
	lineSet := map[string]bool{}
	for s := 0; s < nstates; s++ {
		if !seen[s] {
			continue
		}
		if (len(adj[s]) > 0) == dead[s] {
			return "", fmt.Errorf("oracle: state %d disagrees with lts.DeadlockStates", s)
		}
		for _, t := range adj[s] {
			lineSet[answerLine("s"+strconv.Itoa(t), []string{"s"}, []string{"s" + strconv.Itoa(s)})] = true
		}
	}
	lines := make([]string, 0, len(lineSet))
	for l := range lineSet {
		lines = append(lines, l)
	}
	return digestLines(lines), nil
}
