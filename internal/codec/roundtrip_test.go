package codec_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	_ "repro/internal/harness" // registers the open-loop session payloads
	"repro/internal/synth"
	"repro/internal/workflows/galaxy"
	"repro/internal/workflows/seismic"
	"repro/internal/workflows/sentiment"
)

// workflowValues holds one value of every payload type the workflows
// register, in registration order.
func workflowValues() []any {
	g := synth.Galaxy{Name: "SYN00001", RA: 12.5, Dec: -33.25, MorphType: 4.2, LogR25: 0.31}
	return []any{
		synth.SessionEvent{User: "u17", Action: "click", Seq: 9, At: 1_700_000_000_000_000_000},
		synth.SessionUpdate{User: "u17", Count: -3, At: 42},
		g,
		galaxy.VOTablePayload{Galaxy: g, Rows: []synth.VOTableRow{{Columns: map[string]float64{"t": 4.2, "logr25": 0.31, "ra": 12.5}}}},
		galaxy.FilteredPayload{Name: "SYN00001", MorphType: 4.2, LogR25: 0.31},
		galaxy.ResultPayload{Name: "SYN00001", Extinction: 0.07},
		synth.Article{ID: 7, State: "Ohio", Title: "t", Body: "a happy \x00 body"},
		sentiment.ScoredPayload{State: "Ohio", Score: -1.5, Source: "afinn"},
		sentiment.TokensPayload{State: "Ohio", Tokens: []string{"happy", "", "sad"}},
		sentiment.StateScore{State: "Iowa", Score: 2.25},
		[]sentiment.StateScore{{State: "Iowa", Score: 2.25}, {State: "Utah"}},
		seismic.TracePayload{Station: "ST01", Rate: 100, Samples: []float64{0, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64}},
		seismic.PairPayload{A: "ST01", B: "ST02", Peak: 0.875},
	}
}

func tasksOf(values ...any) []codec.Task {
	ts := make([]codec.Task, len(values))
	for i, v := range values {
		ts[i] = codec.Task{PE: "pe", Port: "in", Value: v, Instance: i - 1, Src: uint64(i + 1), Seq: uint64(i)}
	}
	return ts
}

// roundTripCases are frames of workflow payloads. Cases marked bitwise
// carry NaN, which reflect.DeepEqual never matches, and are compared by
// re-encoding instead.
func roundTripCases() []struct {
	name    string
	tasks   []codec.Task
	bitwise bool
} {
	values := workflowValues()
	mixed := append(append([]any{"scalar", nil, int64(-5)}, values...), values...)
	type rtCase = struct {
		name    string
		tasks   []codec.Task
		bitwise bool
	}
	cases := []rtCase{
		{name: "mixed types, each twice", tasks: tasksOf(mixed...)},
		{name: "nil vs empty slices and maps", tasks: tasksOf(
			sentiment.TokensPayload{State: "nil"},
			sentiment.TokensPayload{State: "empty", Tokens: []string{}},
			[]sentiment.StateScore(nil),
			[]sentiment.StateScore{},
			seismic.TracePayload{Station: "empty", Samples: []float64{}},
			galaxy.VOTablePayload{Rows: []synth.VOTableRow{{}, {Columns: map[string]float64{}}, {Columns: map[string]float64{"e_t": 0}}}},
			galaxy.VOTablePayload{},
		)},
		{name: "non-finite floats", bitwise: true, tasks: tasksOf(
			seismic.TracePayload{Station: "ST09", Samples: []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}},
			sentiment.ScoredPayload{State: "Ohio", Score: math.NaN(), Source: "swn3"},
			sentiment.StateScore{State: "Iowa", Score: math.Inf(-1)},
		)},
	}
	for _, v := range values {
		cases = append(cases, rtCase{name: reflect.TypeOf(v).String(), tasks: tasksOf(v)})
	}
	return cases
}

// TestWorkflowPayloadRoundTrip round-trips one value of every registered
// workflow type through AppendBatch/DecodeBatch, alone and mixed in one
// frame, preserving nil vs empty slices and maps and non-finite floats.
func TestWorkflowPayloadRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases() {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := codec.AppendBatch(nil, tc.tasks)
			if err != nil {
				t.Fatal(err)
			}
			out, err := codec.DecodeBatch(string(frame))
			if err != nil {
				t.Fatal(err)
			}
			if !tc.bitwise {
				if !reflect.DeepEqual(out, tc.tasks) {
					t.Fatalf("round trip changed the tasks:\n got %#v\nwant %#v", out, tc.tasks)
				}
				return
			}
			again, err := codec.AppendBatch(nil, out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, frame)
			}
			if p := out[1].Value.(sentiment.ScoredPayload); !math.IsNaN(p.Score) {
				t.Fatalf("NaN score decoded as %v", p.Score)
			}
		})
	}
}

// FuzzDecodeBatch asserts the decoder never panics on hostile bytes and
// reports every failure as a codec error.
func FuzzDecodeBatch(f *testing.F) {
	seed1, _ := codec.Encode(codec.Task{PE: "pe", Port: "in", Value: "v", Src: 1, Seq: 2})
	seed2, _ := codec.EncodeBatch([]codec.Task{{PE: "a", Value: int64(1)}, {Poison: true}, {PE: "b", Value: sentiment.StateScore{State: "x"}}})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(gobFrame(f, codec.Task{PE: "legacy", Value: "old"}))
	f.Add("\x00" + gobFrame(f, []codec.Task{{PE: "l1"}, {PE: "l2", Value: 3.5}}))
	f.Add("")
	f.Add("\x00\x00\x02\x02garbage")
	f.Add("\x00not-a-gob-batch")
	for _, tc := range roundTripCases() {
		frame, err := codec.EncodeBatch(tc.tasks)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ts, err := codec.DecodeBatch(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "codec: ") {
				t.Fatalf("error without the codec prefix: %v", err)
			}
			return
		}
		if len(ts) == 0 {
			t.Fatal("nil error with empty batch")
		}
	})
}

// gobFrame is a bare gob stream of v: bytes the flat decoder must reject.
func gobFrame(tb testing.TB, v any) string {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}
