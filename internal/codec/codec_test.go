package codec

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

type samplePayload struct {
	Name   string
	Values []float64
	Nested map[string]int
}

func init() {
	Register(samplePayload{})
}

func TestTaskRoundTrip(t *testing.T) {
	in := Task{
		PE:       "getVOTable",
		Port:     "in",
		Value:    samplePayload{Name: "g1", Values: []float64{1.5, -2.25}, Nested: map[string]int{"a": 1}},
		Instance: 3,
		Src:      0xdead_beef_cafe,
		Seq:      41,
	}
	s, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.PE != in.PE || out.Port != in.Port || out.Instance != 3 || out.Poison || out.Finalize {
		t.Errorf("header: %+v", out)
	}
	if out.Src != in.Src || out.Seq != in.Seq {
		t.Errorf("fencing identity lost: Src=%x Seq=%d", out.Src, out.Seq)
	}
	p, ok := out.Value.(samplePayload)
	if !ok {
		t.Fatalf("payload type %T", out.Value)
	}
	if p.Name != "g1" || len(p.Values) != 2 || p.Values[1] != -2.25 || p.Nested["a"] != 1 {
		t.Errorf("payload: %+v", p)
	}
}

func TestControlTasks(t *testing.T) {
	for _, in := range []Task{{Poison: true}, {PE: "agg", Instance: 1, Finalize: true}} {
		s, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decode(s)
		if err != nil {
			t.Fatal(err)
		}
		if out.Poison != in.Poison || out.Finalize != in.Finalize {
			t.Errorf("control flags lost: %+v vs %+v", out, in)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode("not gob data"); err == nil {
		t.Error("garbage must not decode")
	}
	if _, err := Decode(""); err == nil {
		t.Error("empty string must not decode")
	}
	// A bare gob frame of a valid Task is not a flat frame.
	bare, err := encodeGob(Task{PE: "pe", Port: "in", Value: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bare); !errors.Is(err, ErrNotFlat) {
		t.Errorf("bare gob frame: err=%v, want ErrNotFlat", err)
	}
}

func TestEncodeUnregisteredType(t *testing.T) {
	type private struct{ X int }
	_, err := Encode(Task{PE: "x", Value: private{X: 1}})
	if err == nil || !strings.Contains(err.Error(), "encode") {
		t.Errorf("unregistered type should fail encode, got %v", err)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	// Re-registering the same type must not panic.
	Register(samplePayload{})
	Register(samplePayload{})
}

func TestBatchRoundTrip(t *testing.T) {
	in := []Task{
		{PE: "getVOTable", Port: "in", Value: samplePayload{Name: "g1", Values: []float64{1.5}}, Instance: -1},
		{PE: "filterColumns", Port: "in", Value: "row", Instance: 2},
		{PE: "agg", Instance: 0, Finalize: true},
	}
	s, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d tasks, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].PE != in[i].PE || out[i].Port != in[i].Port || out[i].Instance != in[i].Instance || out[i].Finalize != in[i].Finalize {
			t.Errorf("task %d: %+v vs %+v", i, out[i], in[i])
		}
	}
	if p, ok := out[0].Value.(samplePayload); !ok || p.Name != "g1" {
		t.Errorf("payload 0: %#v", out[0].Value)
	}
}

func TestBatchWireCompatibility(t *testing.T) {
	// A single-task flat frame written by Encode must decode through
	// DecodeBatch, and a one-task EncodeBatch must stay readable by plain
	// Decode — a pulled stream entry may hold either shape.
	single, err := Encode(Task{PE: "pe", Port: "in", Value: "v"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PE != "pe" || got[0].Value != "v" {
		t.Errorf("single frame through DecodeBatch: %+v", got)
	}

	one, err := EncodeBatch([]Task{{PE: "pe", Port: "in", Value: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	task, err := Decode(one)
	if err != nil {
		t.Fatal(err)
	}
	if task.PE != "pe" || task.Value != "v" {
		t.Errorf("one-task batch through Decode: %+v", task)
	}
}

func TestBatchEdgeCases(t *testing.T) {
	if _, err := EncodeBatch(nil); err == nil {
		t.Error("empty batch must not encode")
	}
	if _, err := DecodeBatch(""); err == nil {
		t.Error("empty string must not decode")
	}
	if _, err := DecodeBatch("\x00garbage"); err == nil {
		t.Error("0x00-prefixed garbage must not decode")
	}
	// Well-formed gob frames, bare or 0x00-prefixed, are not flat frames.
	bare, err := encodeGobBatch([]Task{{PE: "pe"}})
	if err != nil {
		t.Fatal(err)
	}
	prefixed, err := encodeGobBatch([]Task{{PE: "a"}, {PE: "b", Value: 3.5}})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string]string{"bare gob": bare, "0x00-prefixed gob": prefixed} {
		if _, err := DecodeBatch(frame); !errors.Is(err, ErrNotFlat) || !strings.HasPrefix(err.Error(), "codec: ") {
			t.Errorf("%s frame: err=%v, want ErrNotFlat", name, err)
		}
	}
	if _, err := DecodeBatch(string([]byte{flatMagic, flatMagic, flatVersion, 200}) + "x"); err == nil {
		t.Error("flat frame with implausible count must not decode")
	}
	if _, err := DecodeBatch(string([]byte{flatMagic, flatMagic, 0x7f, 1, 0})); err == nil {
		t.Error("unknown wire version must not decode")
	}
}

func TestQuickRoundTripStrings(t *testing.T) {
	f := func(pe, port string, inst int) bool {
		in := Task{PE: pe, Port: port, Value: pe + port, Instance: inst}
		s, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(s)
		if err != nil {
			return false
		}
		return out.PE == pe && out.Port == port && out.Instance == inst && out.Value == pe+port
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
