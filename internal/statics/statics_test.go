package statics_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
	_ "repro/internal/runtime" // register the in-process mappings
	"repro/internal/statics"
)

type collector struct {
	mu  sync.Mutex
	got []int
}

func (c *collector) add(v int) {
	c.mu.Lock()
	c.got = append(c.got, v)
	c.mu.Unlock()
}

// chainGraph builds gen → inc → double → sink (all fusible).
func chainGraph(n int, col *collector) *graph.Graph {
	g := graph.New("chain")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewMap("inc", func(ctx *core.Context, v any) (any, error) { return v.(int) + 1, nil })
	})
	g.Add(func() core.PE {
		return core.NewMap("double", func(ctx *core.Context, v any) (any, error) { return v.(int) * 2, nil })
	})
	g.Add(func() core.PE {
		return core.NewSink("sink", func(ctx *core.Context, v any) error {
			col.add(v.(int))
			return nil
		})
	})
	g.Pipe("gen", "inc")
	g.Pipe("inc", "double")
	g.Pipe("double", "sink")
	return g
}

func TestStagingFusesLinearChain(t *testing.T) {
	col := &collector{}
	g := chainGraph(10, col)
	fused, err := statics.Staging(g)
	if err != nil {
		t.Fatal(err)
	}
	// The source stays separate (fusing it would serialize the stream);
	// the downstream chain fuses into one composite.
	if got := len(fused.Nodes()); got != 2 {
		names := []string{}
		for _, n := range fused.Nodes() {
			names = append(names, n.Name)
		}
		t.Fatalf("fused graph has %d nodes (%v), want 2", got, names)
	}
	if fused.Node("gen") == nil || fused.Node("inc+double+sink") == nil {
		names := []string{}
		for _, n := range fused.Nodes() {
			names = append(names, n.Name)
		}
		t.Errorf("fused names: %v", names)
	}
}

func TestFusedChainSemanticsMatchOriginal(t *testing.T) {
	runGraph := func(g *graph.Graph) []int {
		m, _ := mapping.Get("simple")
		if _, err := m.Execute(g, mapping.Options{Processes: 1, Platform: platform.Server, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	colA := &collector{}
	ga := chainGraph(20, colA)
	runGraph(ga)

	colB := &collector{}
	gb, err := statics.Staging(chainGraph(20, colB))
	if err != nil {
		t.Fatal(err)
	}
	runGraph(gb)

	if len(colA.got) != len(colB.got) {
		t.Fatalf("lengths differ: %d vs %d", len(colA.got), len(colB.got))
	}
	for i := range colA.got {
		if colA.got[i] != colB.got[i] {
			t.Fatalf("value %d differs: %d vs %d", i, colA.got[i], colB.got[i])
		}
	}
}

func TestStagingStopsAtFanOut(t *testing.T) {
	col := &collector{}
	g := chainGraph(5, col)
	// Add a second consumer of inc's output: inc now has fan-out 2, so
	// gen+inc can no longer fuse with double.
	g.Add(func() core.PE {
		return core.NewSink("tap", func(ctx *core.Context, v any) error { return nil })
	})
	g.Pipe("inc", "tap")
	fused, err := statics.Staging(g)
	if err != nil {
		t.Fatal(err)
	}
	// gen stays (source); inc has fan-out 2 so it stands alone; double+sink
	// fuse; tap stands alone.
	if got := len(fused.Nodes()); got != 4 {
		names := []string{}
		for _, n := range fused.Nodes() {
			names = append(names, n.Name)
		}
		t.Fatalf("nodes: %v want 4", names)
	}
	if fused.Node("double+sink") == nil {
		t.Error("double+sink should fuse")
	}
}

func TestStagingRespectsStatefulAndGroupings(t *testing.T) {
	col := &collector{}
	g := chainGraph(5, col)
	g.Node("double").SetStateful(true)
	fused, err := statics.Staging(g)
	if err != nil {
		t.Fatal(err)
	}
	// gen (source) alone; inc cannot fuse into stateful double; double
	// alone; sink cannot fuse with a stateful predecessor.
	if got := len(fused.Nodes()); got != 4 {
		t.Fatalf("%d nodes, want 4", got)
	}
	if fused.Node("double") == nil || !fused.Node("double").Stateful {
		t.Error("stateful node lost its marker")
	}

	g2 := chainGraph(5, col)
	g2.OutEdges("inc")[0].SetGrouping(graph.GlobalGrouping())
	fused2, err := statics.Staging(g2)
	if err != nil {
		t.Fatal(err)
	}
	// The grouped edge inc→double must survive.
	found := false
	for _, e := range fused2.Edges() {
		if e.Grouping.Kind == graph.Global {
			found = true
		}
	}
	if !found {
		t.Error("grouped edge lost in fusion")
	}
}

func TestNaiveAssignmentUsesProfile(t *testing.T) {
	col := &collector{}
	g := chainGraph(5, col)
	profile := statics.Profile{
		Exec: map[string]time.Duration{
			"inc":    10 * time.Millisecond,
			"double": time.Millisecond,
			"sink":   10 * time.Millisecond,
		},
		Comm: map[string]time.Duration{
			statics.EdgeKey("gen", "inc"):     time.Millisecond,     // comm < exec: keep
			statics.EdgeKey("inc", "double"):  5 * time.Millisecond, // comm > exec: fuse
			statics.EdgeKey("double", "sink"): time.Millisecond,     // comm < exec: keep
		},
	}
	fused, err := statics.NaiveAssignment(g, profile)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Node("inc+double") == nil {
		names := []string{}
		for _, n := range fused.Nodes() {
			names = append(names, n.Name)
		}
		t.Fatalf("expected inc+double fusion, got %v", names)
	}
	if got := len(fused.Nodes()); got != 3 {
		t.Errorf("%d nodes, want 3 (gen, inc+double, sink)", got)
	}
}

func TestFusedGraphRunsUnderMulti(t *testing.T) {
	col := &collector{}
	fused, err := statics.Staging(chainGraph(15, col))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := mapping.Get("multi")
	rep, err := m.Execute(fused, mapping.Options{
		Processes: 2, Platform: platform.Platform{Name: "test", Cores: 2}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	col.mu.Lock()
	n := len(col.got)
	col.mu.Unlock()
	if n != 15 {
		t.Errorf("sink saw %d values, want 15", n)
	}
	if rep.Tasks == 0 {
		t.Error("no tasks recorded")
	}
}

func TestFusedChainKeepsWorkSemantics(t *testing.T) {
	// A fused chain must still model service time through the outer host:
	// runtime of the fused graph must reflect the inner Work calls.
	g := graph.New("workchain")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error {
			for i := 0; i < 4; i++ {
				if err := ctx.EmitDefault(i); err != nil {
					return err
				}
			}
			return nil
		})
	})
	g.Add(func() core.PE {
		return core.NewMap("mid", func(ctx *core.Context, v any) (any, error) {
			ctx.Work(5 * time.Millisecond)
			return v, nil
		})
	})
	g.Add(func() core.PE {
		return core.NewSink("slow", func(ctx *core.Context, v any) error {
			ctx.Work(5 * time.Millisecond)
			return nil
		})
	})
	g.Pipe("gen", "mid")
	g.Pipe("mid", "slow")
	fused, err := statics.Staging(g)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Node("mid+slow") == nil {
		t.Fatal("mid+slow should fuse")
	}
	m, _ := mapping.Get("simple")
	rep, err := m.Execute(fused, mapping.Options{Processes: 1, Platform: platform.Server})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime < 30*time.Millisecond {
		t.Errorf("runtime %v does not reflect 4×10ms of fused work", rep.Runtime)
	}
}
