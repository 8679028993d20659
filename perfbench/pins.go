package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"rpq"
)

// corpusSeed is the seed the gocheck-std corpus in pins.json was drawn
// under; it is fixed so every run seed checks the same packages.
const corpusSeed = 1

// writePinFile recomputes pins.json: the answer digests of the queries no
// oracle covers (memo/hash, one worker) and the gocheck-std corpus with
// its findings digests (one worker), under the running Go toolchain.
func writePinFile(path string) error {
	pins := pinFile{GoVersion: runtime.Version(), CorpusSeed: corpusSeed, Answers: map[string]string{}}
	ins, err := paperInputs()
	if err != nil {
		return err
	}
	graphs := map[string]*rpq.Graph{}
	for _, in := range ins {
		if graphs[in.name], err = in.load(); err != nil {
			return err
		}
	}
	pin := func(graph, kind, pat string, backward, withExit bool) error {
		g := graphs[graph]
		opts := &rpq.Options{Backward: backward}
		var res *rpq.Result
		var err error
		switch kind {
		case "universal":
			res, err = g.Universal(rpq.MustParsePattern(pat), opts)
		case "violations":
			res, err = g.Violations(pat, withExit, opts)
		default:
			opts.Algorithm = rpq.Memo
			res, err = g.Exist(rpq.MustParsePattern(pat), opts)
		}
		if err != nil {
			return fmt.Errorf("%s %s on %s: %w", kind, pat, graph, err)
		}
		pins.Answers[answerKey(graph, kind, pat, backward, withExit)] = resultDigest(res)
		return nil
	}
	for _, in := range ins {
		if in.format == "text" {
			if err := pin(in.name, "exist", bwdUninit, true, false); err != nil {
				return err
			}
		}
	}
	for _, p := range []struct {
		graph, kind, pat string
		withExit         bool
	}{
		{"cksum", "universal", fwdUninit, false},
		{"sum", "universal", fwdFirstUse, false},
		{"cksum", "violations", useDefPolicy, false},
		{"sum", "violations", useDefPolicy, true},
	} {
		if err := pin(p.graph, p.kind, p.pat, false, p.withExit); err != nil {
			return err
		}
	}
	src, err := goSrc()
	if err != nil {
		return err
	}
	dirs, err := drawCorpus(src, corpusSeed, corpusSize)
	if err != nil {
		return err
	}
	for _, d := range dirs {
		rep, _, err := checkPackage(src, corpusPin{Dir: d}, 1)
		if rep == nil {
			return fmt.Errorf("%s: %w", d, err)
		}
		pins.Corpus = append(pins.Corpus, corpusPin{Dir: d, Findings: findingsDigest(rep, src)})
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
