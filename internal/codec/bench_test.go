package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
)

// The BenchmarkCodec* family compares the flat wire format against a gob
// baseline (the per-task gob framing the flat format replaced). CI runs
// these with -benchmem as the allocation-regression smoke alongside
// TestEncodeSteadyStateZeroAllocs.

// encodeGob is the gob baseline for one task: a bare gob stream of Task.
func encodeGob(t Task) (string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&t); err != nil {
		return "", fmt.Errorf("codec: encode task for PE %q: %w", t.PE, err)
	}
	return buf.String(), nil
}

// encodeGobBatch is the gob baseline for a batch: one 0x00 byte followed by
// a gob stream of []Task; a one-task batch degrades to encodeGob.
func encodeGobBatch(ts []Task) (string, error) {
	if len(ts) == 0 {
		return "", fmt.Errorf("codec: encode empty batch")
	}
	if len(ts) == 1 {
		return encodeGob(ts[0])
	}
	var buf bytes.Buffer
	buf.WriteByte(0x00)
	if err := gob.NewEncoder(&buf).Encode(ts); err != nil {
		return "", fmt.Errorf("codec: encode batch of %d tasks: %w", len(ts), err)
	}
	return buf.String(), nil
}

// decodeGob and decodeGobBatch are the matching gob decode baselines.
func decodeGob(s string) (Task, error) {
	var t Task
	err := gob.NewDecoder(strings.NewReader(s)).Decode(&t)
	return t, err
}

func decodeGobBatch(s string) ([]Task, error) {
	var ts []Task
	err := gob.NewDecoder(strings.NewReader(s[1:])).Decode(&ts)
	return ts, err
}

func benchTask(i int) Task {
	return Task{PE: "sessionize", Port: "in", Value: "user-1234", Instance: -1, Src: uint64(i + 1), Seq: uint64(i)}
}

func benchBatch(n int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = benchTask(i)
	}
	return ts
}

func BenchmarkCodecEncode(b *testing.B) {
	task := benchTask(0)
	dst := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendTask(dst[:0], task)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeGob(b *testing.B) {
	task := benchTask(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeGob(task); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	s, err := Encode(benchTask(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeGob(b *testing.B) {
	s, err := encodeGob(benchTask(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeGob(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeBatch64(b *testing.B) {
	ts := benchBatch(64)
	dst := make([]byte, 0, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendBatch(dst[:0], ts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeBatch64Gob(b *testing.B) {
	ts := benchBatch(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeGobBatch(ts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeBatch64(b *testing.B) {
	s, err := EncodeBatch(benchBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeBatch64Gob(b *testing.B) {
	s, err := encodeGobBatch(benchBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeGobBatch(s); err != nil {
			b.Fatal(err)
		}
	}
}

// The gob baselines carry struct payloads in interface values, which gob
// requires to be registered with it.
func init() { gob.Register(samplePayload{}) }

func structBatch(n int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{PE: "filter", Port: "in", Instance: -1, Value: samplePayload{Name: "g", Values: []float64{1.5, 2.5}}}
	}
	return ts
}

// Struct payloads exercise the compiled type plans: the type is named once
// per frame and every value is written inline.
func BenchmarkCodecEncodeStructBatch64(b *testing.B) {
	ts := structBatch(64)
	dst := make([]byte, 0, 16384)
	b.ReportAllocs()
	b.ResetTimer() // the payload set-up allocates; measure the loop alone
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = AppendBatch(dst[:0], ts)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeStructBatch64Gob(b *testing.B) {
	ts := structBatch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeGobBatch(ts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeStructBatch64(b *testing.B) {
	s, err := EncodeBatch(structBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeStructBatch64Gob(b *testing.B) {
	s, err := encodeGobBatch(structBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeGobBatch(s); err != nil {
			b.Fatal(err)
		}
	}
}
