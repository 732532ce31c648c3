// Staging example: the prior-work *static* optimizations the paper builds
// on. It measures an execution profile of the seismic phase-1 chain, shows
// what naive assignment fuses from that profile, applies staging (fuse all
// no-shuffle chains), and compares dynamic-scheduling runs of the original
// and staged graphs — the staged one ships each data unit through one queue
// hop instead of eight.
package main

import (
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
	_ "repro/internal/runtime" // register the in-process mappings
	"repro/internal/statics"
	"repro/internal/workflows/seismic"
)

func main() {
	mk := func() *graph.Graph { return seismic.New(seismic.Config{Stations: 25, Samples: 1200}) }

	// 1. Profile the workflow (the "execution log" of naive assignment).
	profile, err := statics.MeasureProfile(mk(), statics.DefaultCommModel(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("measured per-unit execution times:")
	for _, n := range mk().Nodes() {
		fmt.Printf("  %-14s %v\n", n.Name, profile.Exec[n.Name])
	}

	// 2. Naive assignment: fuse edges where shipping costs more than
	// computing.
	naive, err := statics.NaiveAssignment(mk(), profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnaive assignment: %d PEs → %d nodes\n", len(mk().Nodes()), len(naive.Nodes()))
	for _, n := range naive.Nodes() {
		fmt.Printf("  %s\n", n.Name)
	}

	// 3. Staging: fuse every linear no-shuffle chain.
	staged, err := statics.Staging(mk())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstaging: %d PEs → %d nodes\n", len(mk().Nodes()), len(staged.Nodes()))

	// 4. Run both under dynamic scheduling and compare.
	m, err := mapping.Get("dyn_multi")
	if err != nil {
		log.Fatal(err)
	}
	opts := mapping.Options{Processes: 8, Platform: platform.Server, Seed: 5}
	orig, err := m.Execute(mk(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fused, err := m.Execute(staged, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noriginal: %s\nstaged:   %s\n", orig, fused)
	fmt.Printf("staged graph moved %d tasks through the queue instead of %d\n", fused.Tasks, orig.Tasks)
}
