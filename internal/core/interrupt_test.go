package core

import (
	"context"
	"errors"
	"testing"

	"rpq/internal/gen"
	"rpq/internal/pattern"
)

// TestInterruptStatsComplete stops every existential variant and the
// universal basic one from inside the Progress callback, at the second
// snapshot, by raising the cancellation flag directly so the stop point is
// deterministic. The InterruptError's Stats must then carry what the
// solver's finisher computes from the state the run stopped in — Bytes
// included, which the interrupt paths used to leave at 0.
//
// A worklist run checks for cancellation right after each snapshot, so it
// stops in the snapshot's state: ReachSize and Substs equal the
// snapshot's, and Bytes is the snapshot's live bytes plus the finisher's
// result-pair (and, universally, per-vertex) terms over ResultPairs. An
// enumeration run stops inside or after the substitution the snapshot
// announced.
func TestInterruptStatsComplete(t *testing.T) {
	corpus := parCorpus(t)
	prog := corpus[0]                       // prog-fwd: about 800 worklist inserts
	cyclic := corpus[2]                     // answers in the first enumerated substitutions
	ug := gen.Program(gen.Table1Specs()[2]) // "expand": 886 universal pops
	type run struct {
		name string
		algo Algo
		pass solverFunc
		wl   parWorkload
	}
	for _, r := range []run{
		{"exist-basic", AlgoBasic, existWorklist, prog},
		{"exist-memo", AlgoMemo, existWorklist, prog},
		{"exist-precomp", AlgoPrecomp, existWorklist, prog},
		{"exist-enum", AlgoEnum, existEnum, cyclic},
		{"univ-basic", AlgoBasic, univWorklist, parWorkload{"expand", ug, ug.Start(), "(def(x) (use(x,_))*)*"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			g, v0 := r.wl.g, r.wl.start
			q := MustCompile(pattern.MustParse(r.wl.pat), g.U)
			univ := r.name == "univ-basic"
			cxl := &canceler{}
			var snaps []Progress
			opts := Options{Algo: r.algo, cxl: cxl, Progress: func(p Progress) {
				snaps = append(snaps, p)
				if len(snaps) == 2 {
					cxl.flag.Store(cxlCanceled)
				}
			}}
			res, err := r.pass(g, v0, q, opts, instr{})
			checkInterrupt(t, res, err, ErrCanceled, context.Canceled)
			s := err.(*InterruptError).Stats
			if len(snaps) != 2 {
				t.Fatalf("run delivered %d snapshots after the cancel, want it to stop at the second",
					len(snaps)-2)
			}
			at := snaps[1]
			t.Logf("stopped at pop %d: inserts=%d reach=%d substs=%d enum=%d pairs=%d bytes=%d",
				at.Pops, s.WorklistInserts, s.ReachSize, s.Substs, s.EnumSubsts, s.ResultPairs, s.Bytes)
			if s.Bytes <= 0 {
				t.Fatalf("interrupted Stats.Bytes = %d, want > 0", s.Bytes)
			}
			if s.ResultPairs < 0 || s.ResultPairs > s.ReachSize {
				t.Fatalf("ResultPairs = %d outside [0, ReachSize = %d]", s.ResultPairs, s.ReachSize)
			}
			pairs := pairsBytes(s.ResultPairs, q.Pars())
			switch r.algo {
			case AlgoEnum:
				if s.EnumSubsts != int(at.EnumSubsts) {
					t.Fatalf("EnumSubsts = %d, want the snapshot's %d", s.EnumSubsts, at.EnumSubsts)
				}
				if s.ReachSize != s.WorklistInserts || int64(s.ReachSize) < at.Reach {
					t.Fatalf("ReachSize = %d, want WorklistInserts (%d) and >= the snapshot's %d",
						s.ReachSize, s.WorklistInserts, at.Reach)
				}
				if s.Bytes < at.Bytes+pairs {
					t.Fatalf("Bytes = %d, want >= snapshot %d + pairs %d", s.Bytes, at.Bytes, pairs)
				}
				return
			}
			if int64(s.ReachSize) != at.Reach || int64(s.Substs) != at.Substs {
				t.Fatalf("ReachSize/Substs = %d/%d, want the snapshot's %d/%d",
					s.ReachSize, s.Substs, at.Reach, at.Substs)
			}
			want := at.Bytes + pairs
			if univ {
				want += int64(g.NumVertices()) * (1 + 24 + 1)
			}
			switch {
			case r.algo == AlgoPrecomp && s.Bytes <= want:
				t.Fatalf("Bytes = %d, want > %d: the precomputed map is missing", s.Bytes, want)
			case r.algo != AlgoPrecomp && s.Bytes != want:
				t.Fatalf("Bytes = %d, want %d (snapshot %d + finisher terms over %d pairs)",
					s.Bytes, want, at.Bytes, s.ResultPairs)
			}
		})
	}
}

// TestConcludeDeadlineDuringSort covers a deadline that fires after the
// solver's last checkpoint, while conclude sorts the answer pairs: the run
// must report the deadline, not succeed late, and carry its complete stats.
// The flag is raised before the call, which conclude cannot tell apart from
// one raised during the sort.
func TestConcludeDeadlineDuringSort(t *testing.T) {
	c := &canceler{}
	c.flag.Store(cxlDeadline)
	stats := Stats{WorklistInserts: 42, ReachSize: 40, Substs: 3, ResultPairs: 2, Bytes: 4096}
	pairs := []Pair{{Vertex: 2}, {Vertex: 1}}
	res, err := conclude(c, false, pairs, stats, &Explain{})
	var ie *InterruptError
	if !errors.As(err, &ie) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("conclude = (%v, %v), want an *InterruptError wrapping ErrDeadline", res, err)
	}
	want := stats
	want.DeterminismOK = true
	if ie.Stats != want {
		t.Fatalf("Stats = %+v, want the run's %+v", ie.Stats, want)
	}
	if ie.Explain == nil {
		t.Fatal("Explain dropped from the interrupt")
	}
}
