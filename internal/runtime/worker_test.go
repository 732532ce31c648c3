package runtime_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/platform"
	_ "repro/internal/runtime" // register the in-process mappings
)

// TestPullBatchingPreservesDelivery runs a fan-out pipeline under every
// combination of pull window (unbatched, fixed, adaptive) on an in-process
// mapping and checks that exactly the expected values arrive — prefetching
// and pipelined acks must be invisible to workflow semantics, including the
// coordinator's Final flush.
func TestPullBatchingPreservesDelivery(t *testing.T) {
	const fanOut = 40
	for _, pull := range []int{1, 8, mapping.AutoBatch} {
		t.Run(fmt.Sprintf("pull=%d", pull), func(t *testing.T) {
			var mu sync.Mutex
			sum := 0
			got := 0
			g := graph.New("pullbatch")
			g.Add(func() core.PE {
				return core.NewSource("gen", func(ctx *core.Context) error {
					for i := 1; i <= fanOut; i++ {
						if err := ctx.EmitDefault(i); err != nil {
							return err
						}
					}
					return nil
				})
			})
			g.Add(func() core.PE {
				return core.NewSink("sink", func(ctx *core.Context, v any) error {
					mu.Lock()
					sum += v.(int)
					got++
					mu.Unlock()
					return nil
				})
			})
			g.Pipe("gen", "sink")

			m, err := mapping.Get("dyn_multi")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Execute(g, mapping.Options{
				Processes: 4,
				Platform:  platform.Platform{Name: "test", Cores: 4},
				Seed:      1,
				EmitBatch: mapping.AutoBatch,
				PullBatch: pull,
			}); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if want := fanOut * (fanOut + 1) / 2; got != fanOut || sum != want {
				t.Fatalf("sink saw %d values summing %d, want %d summing %d", got, sum, fanOut, want)
			}
		})
	}
}

// TestExecuteRejectsInvalidBatchOptions pins the validation seam: a typo'd
// negative batch size must fail loudly, not silently disable batching.
func TestExecuteRejectsInvalidBatchOptions(t *testing.T) {
	g := graph.New("badbatch")
	g.Add(func() core.PE {
		return core.NewSource("gen", func(ctx *core.Context) error { return nil })
	})
	m, err := mapping.Get("dyn_multi")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []mapping.Options{{Processes: 1, EmitBatch: -7}, {Processes: 1, PullBatch: -2}} {
		if _, err := m.Execute(g, opts); err == nil {
			t.Fatalf("options %+v must be rejected", opts)
		}
	}
}

// initEmitPE emits values from its Init hook and nothing else.
type initEmitPE struct {
	core.Base
	n int
}

func (p *initEmitPE) Init(ctx *core.Context) error {
	for i := 0; i < p.n; i++ {
		if err := ctx.EmitDefault(i); err != nil {
			return err
		}
	}
	return nil
}

func (p *initEmitPE) Process(ctx *core.Context, port string, v any) error { return nil }

// TestInitEmissionsSurviveBatching pins the batcher contract for Init
// hooks: emissions buffered during Init must be flushed before the worker
// starts pulling, or a small batch would be invisible to the pending count
// and silently dropped at termination.
func TestInitEmissionsSurviveBatching(t *testing.T) {
	for _, name := range []string{"multi", "dyn_multi"} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			got := 0
			g := graph.New("initemit")
			g.Add(func() core.PE {
				return core.NewSource("gen", func(ctx *core.Context) error { return nil })
			})
			g.Add(func() core.PE {
				return &initEmitPE{Base: core.NewBase("mid", core.In(), core.Out()), n: 3}
			})
			g.Add(func() core.PE {
				return core.NewSink("sink", func(ctx *core.Context, v any) error {
					mu.Lock()
					got++
					mu.Unlock()
					return nil
				})
			})
			g.Pipe("gen", "mid")
			g.Pipe("mid", "sink")

			m, err := mapping.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			workers := 3
			if _, err := m.Execute(g, mapping.Options{
				Processes: workers,
				Platform:  platform.Platform{Name: "test", Cores: 4},
				Seed:      1,
				EmitBatch: 64, // far larger than the Init emissions
			}); err != nil {
				t.Fatal(err)
			}
			// multi runs one mid instance; dyn_multi runs Init once per
			// worker copy. Either way every Init emission must arrive.
			want := 3
			if name == "dyn_multi" {
				want = 3 * workers
			}
			mu.Lock()
			defer mu.Unlock()
			if got != want {
				t.Fatalf("sink saw %d init emissions, want %d (batch dropped)", got, want)
			}
		})
	}
}
