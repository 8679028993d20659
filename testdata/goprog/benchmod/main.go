// Package main is the root of the gofront benchmark module: a small but
// realistic multi-package program (cross-package calls, locks, channels,
// defers) that the root package's TestSolverCounters lowers through the
// frontend and queries, so its pinned counters cover frontend and solver
// together.
package main

import (
	"benchmod/pipeline"
	"benchmod/store"
)

func main() {
	s := store.New(64)
	defer s.Close()
	jobs := make(chan int, 8)
	go produce(jobs, 100)
	total := pipeline.Run(jobs, s)
	report(total, s)
}

func produce(jobs chan int, n int) {
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
}

func report(total int, s *store.Store) {
	var peak int
	if total > 0 {
		peak = s.Max()
	}
	_ = peak
}
