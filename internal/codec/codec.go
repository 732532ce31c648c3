// Package codec serializes workflow task envelopes for transport through
// Redis. It plays the role pickle plays for dispel4py's Redis mapping.
//
// The wire format is a flat, length-prefixed binary frame (version 2):
//
//	frame  = 0x00 0x00            magic (two NUL bytes)
//	         0x02                 format version
//	         uvarint(count)       tasks in the frame
//	         record*              one per task, in order; nothing follows
//
//	record = flags byte:
//	           0x01 Poison        0x02 Finalize
//	           0x04 identity      Src/Seq present (fencing provenance)
//	           0x08 traced        TraceAt present (telemetry sampling)
//	           0x10 value         payload present (Value != nil)
//	         uvarint(len) PE-bytes
//	         uvarint(len) Port-bytes
//	         zigzag-uvarint Instance        (-1 = dynamic pool)
//	         [identity] fixed64-LE Src, uvarint Seq
//	         [traced]   fixed64-LE TraceAt
//	         [value]    tag byte + payload
//
//	payload by tag:
//	  0x01 string, 0x02 []byte    uvarint(len) bytes
//	  0x03 true, 0x04 false       (no bytes)
//	  0x05 int, 0x06 int64,
//	  0x0A int32                  zigzag-uvarint
//	  0x07 uint64                 uvarint
//	  0x08 float64, 0x09 float32  fixed64-LE / fixed32-LE IEEE 754 bits
//	  0x0B type definition        uvarint(len) name-bytes, body
//	  0x0C type reference         uvarint(index), body
//
// A registered payload type is named once per frame: its first value
// carries a type definition, which gives the type the frame's next index
// (0, 1, ...), and later values of that type carry a reference to the
// index. The name is the type's package path and name, resolved on decode
// through the registry Register fills. The body is the value laid out by
// the plan Register compiled for its type, recursively:
//
//	bool                    one byte, 0 or 1
//	int, int8 ... int64     zigzag-uvarint
//	uint, uint8 ... uint64  uvarint
//	float32, float64        fixed32-LE / fixed64-LE IEEE 754 bits
//	string                  uvarint(len) bytes
//	slice, map              uvarint(0) if nil, else uvarint(len+1) and the
//	                        elements (key, value pairs for a map); a byte
//	                        slice's elements are its raw bytes
//	struct                  its exported fields, in declaration order
//
// Encoding is allocation-free in steady state: AppendTask/AppendBatch write
// into a caller-supplied byte slice (GetBuffer/Release pool them). Decoding
// checks every length against the remaining bytes before it allocates, and
// decoded strings share the frame's bytes. Frames live only in a run's own
// streams, so decoding accepts the current format alone: anything without
// the magic fails with ErrNotFlat, any other version with ErrVersion.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Task is the unit shipped through the Redis global queue: which PE to run,
// which input port the value arrives on, and the value itself. Generate
// tasks (for source PEs) carry an empty port and nil value.
type Task struct {
	// PE is the destination node name.
	PE string
	// Port is the destination input port; empty for source-generate tasks.
	Port string
	// Value is the payload.
	Value any
	// Instance is the destination instance for grouped (stateful) routing;
	// -1 means "any instance" (the dynamic pool).
	Instance int
	// Poison marks a termination pill.
	Poison bool
	// Finalize asks a stateful instance to run its Final hook (hybrid
	// mapping's coordinated flush phase).
	Finalize bool
	// Src and Seq identify the task for exactly-once fencing under
	// at-least-once replay: Src names the task's provenance (a hash mixing
	// the parent task's identity with the emitting edge, or a seed/finalize
	// constant), Seq is the per-(provenance) sequence number. The pair is
	// deterministic — a replayed parent re-emits children with identical
	// identities — which is what lets the managed-state fence drop updates
	// whose sequence was already applied. Both zero means the task is
	// unstamped (fencing off); the wire format omits zero identities, so
	// unstamped tasks pay nothing on the wire.
	Src uint64
	Seq uint64
	// TraceAt, when non-zero, marks the task as sampled by the telemetry
	// tracer and carries the UnixNano timestamp of the emission that created
	// it. Children of a traced task are traced in turn, so a sampled task's
	// whole downstream path is reconstructable across workers (and, because
	// Src/Seq are deterministic, across kill-and-replay). The wire format
	// omits the zero value, so untraced tasks pay nothing on the wire.
	TraceAt int64
}

// Wire constants.
const (
	flatMagic   = 0x00 // first two bytes of a flat frame
	flatVersion = 0x02 // current flat format version
)

var (
	// ErrNotFlat is returned when a frame does not start with the
	// flat-frame magic (for example a bare gob stream).
	ErrNotFlat = errors.New("codec: not a flat frame")
	// ErrVersion is returned for a flat frame of another format version.
	ErrVersion = errors.New("codec: unsupported wire format version")
)

// Record flag bits.
const (
	flagPoison   = 0x01
	flagFinalize = 0x02
	flagIdentity = 0x04 // Src/Seq present
	flagTraced   = 0x08 // TraceAt present
	flagValue    = 0x10 // payload present
)

// Payload tags.
const (
	tagString  = 0x01
	tagBytes   = 0x02
	tagTrue    = 0x03
	tagFalse   = 0x04
	tagInt     = 0x05
	tagInt64   = 0x06
	tagUint64  = 0x07
	tagFloat64 = 0x08
	tagFloat32 = 0x09
	tagInt32   = 0x0A
	tagTypeDef = 0x0B // registered type named for the first time in the frame
	tagTypeRef = 0x0C // registered type named earlier in the frame
)

// Buffer is a pooled scratch slice for frame encoding. Transports hold one
// per push, append frames into B, and Release it when the wire bytes have
// been handed to the client.
type Buffer struct {
	B []byte
}

// maxPooledBuffer caps what Release returns to the pool so one giant frame
// does not pin its buffer forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 1024)} }}

// GetBuffer fetches a pooled encode buffer with length 0.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool.
func (b *Buffer) Release() {
	if cap(b.B) <= maxPooledBuffer {
		bufPool.Put(b)
	}
}

// AppendTask appends a one-task flat frame to dst and returns the extended
// slice. It allocates nothing beyond dst's own growth.
func AppendTask(dst []byte, t Task) ([]byte, error) {
	dst = append(dst, flatMagic, flatMagic, flatVersion, 1)
	var local [1]*typePlan
	dst, _, err := appendRecord(dst, &t, local[:0])
	return dst, err
}

// AppendBatch appends one flat frame holding all of ts to dst and returns
// the extended slice. Each registered payload type is named once per frame.
func AppendBatch(dst []byte, ts []Task) ([]byte, error) {
	if len(ts) == 0 {
		return dst, fmt.Errorf("codec: encode empty batch")
	}
	dst = append(dst, flatMagic, flatMagic, flatVersion)
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	// types is the frame's table of payload types, in the order the frame
	// names them. Frames rarely carry more than one or two, so a linear
	// scan beats a map, and the table lives on the stack.
	var local [4]*typePlan
	types := local[:0]
	var err error
	for i := range ts {
		if dst, types, err = appendRecord(dst, &ts[i], types); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendRecord writes one task record and returns types extended by its
// payload's type if the frame had not named that type yet.
func appendRecord(dst []byte, t *Task, types []*typePlan) ([]byte, []*typePlan, error) {
	flags := byte(0)
	if t.Poison {
		flags |= flagPoison
	}
	if t.Finalize {
		flags |= flagFinalize
	}
	if t.Src != 0 || t.Seq != 0 {
		flags |= flagIdentity
	}
	if t.TraceAt != 0 {
		flags |= flagTraced
	}
	if t.Value != nil {
		flags |= flagValue
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(t.PE)))
	dst = append(dst, t.PE...)
	dst = binary.AppendUvarint(dst, uint64(len(t.Port)))
	dst = append(dst, t.Port...)
	dst = appendZigzag(dst, int64(t.Instance))
	if flags&flagIdentity != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, t.Src)
		dst = binary.AppendUvarint(dst, t.Seq)
	}
	if flags&flagTraced != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.TraceAt))
	}
	if flags&flagValue == 0 {
		return dst, types, nil
	}
	switch v := t.Value.(type) {
	case string:
		dst = append(dst, tagString)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	case []byte:
		dst = append(dst, tagBytes)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	case bool:
		if v {
			dst = append(dst, tagTrue)
		} else {
			dst = append(dst, tagFalse)
		}
	case int:
		dst = append(dst, tagInt)
		dst = appendZigzag(dst, int64(v))
	case int64:
		dst = append(dst, tagInt64)
		dst = appendZigzag(dst, v)
	case uint64:
		dst = append(dst, tagUint64)
		dst = binary.AppendUvarint(dst, v)
	case float64:
		dst = append(dst, tagFloat64)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	case float32:
		dst = append(dst, tagFloat32)
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	case int32:
		dst = append(dst, tagInt32)
		dst = appendZigzag(dst, int64(v))
	default:
		rv := reflect.ValueOf(v)
		p := plans.Load().byType[rv.Type()]
		if p == nil {
			return dst, types, fmt.Errorf("%w %v (encoding payload for PE %q)", ErrUnregistered, rv.Type(), t.PE)
		}
		dst, types = appendTypeRef(dst, types, p)
		dst = p.enc(dst, rv)
	}
	return dst, types, nil
}

// appendTypeRef writes the type of a payload: its index if the frame
// already named it, else its name, which assigns it the next index.
func appendTypeRef(dst []byte, types []*typePlan, p *typePlan) ([]byte, []*typePlan) {
	for i, q := range types {
		if q == p {
			dst = append(dst, tagTypeRef)
			return binary.AppendUvarint(dst, uint64(i)), types
		}
	}
	dst = append(dst, tagTypeDef)
	dst = binary.AppendUvarint(dst, uint64(len(p.name)))
	return append(dst, p.name...), append(types, p)
}

// Encode serializes a task to a binary-safe string (a one-task flat frame).
func Encode(t Task) (string, error) {
	buf := GetBuffer()
	defer buf.Release()
	b, err := AppendTask(buf.B, t)
	buf.B = b[:0]
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// EncodeBatch serializes several tasks into one flat frame.
func EncodeBatch(ts []Task) (string, error) {
	buf := GetBuffer()
	defer buf.Release()
	b, err := AppendBatch(buf.B, ts)
	buf.B = b[:0]
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Decode deserializes a one-task frame produced by Encode (or a one-task
// EncodeBatch).
func Decode(s string) (Task, error) {
	ts, err := DecodeBatch(s)
	if err != nil {
		return Task{}, err
	}
	if len(ts) != 1 {
		return Task{}, fmt.Errorf("codec: decode task: frame holds %d tasks", len(ts))
	}
	return ts[0], nil
}

// decodeType is one entry of a frame's type table. scratch is the settable
// value records of the type decode into; boxing it into Task.Value copies
// it, so the frame allocates one value per type, not per record.
type decodeType struct {
	plan    *typePlan
	scratch reflect.Value
}

// DecodeBatch deserializes a flat frame of any task count.
func DecodeBatch(s string) ([]Task, error) {
	if len(s) < 4 || s[0] != flatMagic || s[1] != flatMagic {
		return nil, ErrNotFlat
	}
	if s[2] != flatVersion {
		return nil, fmt.Errorf("%w %d (want %d)", ErrVersion, s[2], flatVersion)
	}
	count, off, err := readUvarint(s, 3)
	if err != nil {
		return nil, fmt.Errorf("codec: decode frame count: %w", err)
	}
	// Every record costs at least 4 bytes, so a count anywhere near the frame
	// length is corrupt; reject before allocating.
	if count == 0 || count > uint64(len(s)) {
		return nil, fmt.Errorf("codec: implausible frame count %d for %d-byte frame", count, len(s))
	}
	ts := make([]Task, count)
	var local [4]decodeType
	types := local[:0]
	for i := range ts {
		if off, types, err = decodeRecord(s, off, &ts[i], types); err != nil {
			return nil, fmt.Errorf("codec: decode task %d/%d: %w", i+1, count, err)
		}
	}
	if off != len(s) {
		return nil, fmt.Errorf("codec: %d trailing bytes after frame", len(s)-off)
	}
	return ts, nil
}

// decodeRecord parses one task record starting at off and returns types
// extended by the payload type the record names, if it names one.
func decodeRecord(s string, off int, t *Task, types []decodeType) (int, []decodeType, error) {
	if off >= len(s) {
		return off, types, fmt.Errorf("truncated record")
	}
	flags := s[off]
	off++
	var err error
	if t.PE, off, err = readString(s, off); err != nil {
		return off, types, fmt.Errorf("PE: %w", err)
	}
	if t.Port, off, err = readString(s, off); err != nil {
		return off, types, fmt.Errorf("port: %w", err)
	}
	var inst int64
	if inst, off, err = readZigzag(s, off); err != nil {
		return off, types, fmt.Errorf("instance: %w", err)
	}
	t.Instance = int(inst)
	t.Poison = flags&flagPoison != 0
	t.Finalize = flags&flagFinalize != 0
	if flags&flagIdentity != 0 {
		if t.Src, off, err = readFixed64(s, off); err != nil {
			return off, types, fmt.Errorf("src: %w", err)
		}
		if t.Seq, off, err = readUvarint(s, off); err != nil {
			return off, types, fmt.Errorf("seq: %w", err)
		}
	}
	if flags&flagTraced != 0 {
		var at uint64
		if at, off, err = readFixed64(s, off); err != nil {
			return off, types, fmt.Errorf("traceAt: %w", err)
		}
		t.TraceAt = int64(at)
	}
	if flags&flagValue == 0 {
		return off, types, nil
	}
	if off >= len(s) {
		return off, types, fmt.Errorf("truncated payload tag")
	}
	tag := s[off]
	off++
	switch tag {
	case tagString:
		var v string
		if v, off, err = readString(s, off); err != nil {
			return off, types, fmt.Errorf("string payload: %w", err)
		}
		t.Value = v
	case tagBytes:
		var v string
		if v, off, err = readString(s, off); err != nil {
			return off, types, fmt.Errorf("bytes payload: %w", err)
		}
		t.Value = []byte(v)
	case tagTrue:
		t.Value = true
	case tagFalse:
		t.Value = false
	case tagInt:
		var v int64
		if v, off, err = readZigzag(s, off); err != nil {
			return off, types, fmt.Errorf("int payload: %w", err)
		}
		t.Value = int(v)
	case tagInt64:
		var v int64
		if v, off, err = readZigzag(s, off); err != nil {
			return off, types, fmt.Errorf("int64 payload: %w", err)
		}
		t.Value = v
	case tagUint64:
		var v uint64
		if v, off, err = readUvarint(s, off); err != nil {
			return off, types, fmt.Errorf("uint64 payload: %w", err)
		}
		t.Value = v
	case tagFloat64:
		var bits uint64
		if bits, off, err = readFixed64(s, off); err != nil {
			return off, types, fmt.Errorf("float64 payload: %w", err)
		}
		t.Value = math.Float64frombits(bits)
	case tagFloat32:
		var bits uint32
		if bits, off, err = readFixed32(s, off); err != nil {
			return off, types, fmt.Errorf("float32 payload: %w", err)
		}
		t.Value = math.Float32frombits(bits)
	case tagInt32:
		var v int64
		if v, off, err = readZigzag(s, off); err != nil {
			return off, types, fmt.Errorf("int32 payload: %w", err)
		}
		t.Value = int32(v)
	case tagTypeDef, tagTypeRef:
		var i int
		if i, types, off, err = readTypeRef(s, off, tag, types); err != nil {
			return off, types, err
		}
		dt := types[i]
		if off, err = dt.plan.dec(s, off, dt.scratch); err != nil {
			return off, types, fmt.Errorf("%s payload: %w", dt.plan.name, err)
		}
		t.Value = dt.scratch.Interface()
	default:
		return off, types, fmt.Errorf("unknown payload tag 0x%02x", tag)
	}
	return off, types, nil
}

// readTypeRef resolves a payload's type to its index in types: a name
// (tagTypeDef) is looked up in the registry and appended, an index
// (tagTypeRef) must refer to a type the frame named before.
func readTypeRef(s string, off int, tag byte, types []decodeType) (int, []decodeType, int, error) {
	if tag == tagTypeRef {
		i, off, err := readUvarint(s, off)
		if err != nil {
			return 0, types, off, fmt.Errorf("type index: %w", err)
		}
		if i >= uint64(len(types)) {
			return 0, types, off, fmt.Errorf("type index %d out of %d named", i, len(types))
		}
		return int(i), types, off, nil
	}
	name, off, err := readString(s, off)
	if err != nil {
		return 0, types, off, fmt.Errorf("type name: %w", err)
	}
	p := plans.Load().byName[name]
	if p == nil {
		return 0, types, off, fmt.Errorf("type %q: %w", name, ErrUnregistered)
	}
	return len(types), append(types, decodeType{plan: p, scratch: reflect.New(p.typ).Elem()}), off, nil
}

// --- primitive readers/writers over strings (no []byte conversions) ---

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func readUvarint(s string, off int) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := off; i < len(s); i++ {
		b := s[i]
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, i, fmt.Errorf("uvarint overflows 64 bits")
		}
		if b < 0x80 {
			return v | uint64(b)<<shift, i + 1, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, len(s), fmt.Errorf("truncated uvarint")
}

func readZigzag(s string, off int) (int64, int, error) {
	u, off, err := readUvarint(s, off)
	if err != nil {
		return 0, off, err
	}
	return int64(u>>1) ^ -int64(u&1), off, nil
}

func readString(s string, off int) (string, int, error) {
	n, off, err := readUvarint(s, off)
	if err != nil {
		return "", off, err
	}
	if n > uint64(len(s)-off) {
		return "", off, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(s)-off)
	}
	return s[off : off+int(n)], off + int(n), nil
}

func readFixed64(s string, off int) (uint64, int, error) {
	if len(s)-off < 8 {
		return 0, off, fmt.Errorf("truncated fixed64")
	}
	v := uint64(s[off]) | uint64(s[off+1])<<8 | uint64(s[off+2])<<16 | uint64(s[off+3])<<24 |
		uint64(s[off+4])<<32 | uint64(s[off+5])<<40 | uint64(s[off+6])<<48 | uint64(s[off+7])<<56
	return v, off + 8, nil
}

func readFixed32(s string, off int) (uint32, int, error) {
	if len(s)-off < 4 {
		return 0, off, fmt.Errorf("truncated fixed32")
	}
	v := uint32(s[off]) | uint32(s[off+1])<<8 | uint32(s[off+2])<<16 | uint32(s[off+3])<<24
	return v, off + 4, nil
}
