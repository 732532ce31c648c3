package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// ErrUnregistered is returned when a payload's type was never passed to
// Register: on encode for a non-scalar value, on decode for a type name the
// registry does not know.
var ErrUnregistered = errors.New("codec: unregistered payload type")

// encodeFunc appends the body of v to dst.
type encodeFunc func(dst []byte, v reflect.Value) []byte

// decodeFunc reads one body at off into the settable v and returns the
// offset after it. It assigns every part of v, so v may hold a previous
// value on entry.
type decodeFunc func(s string, off int, v reflect.Value) (int, error)

// fieldPlan is the compiled codec of one Go type.
type fieldPlan struct {
	enc encodeFunc
	dec decodeFunc
	// min is the fewest bytes a body can take; decode bounds element
	// counts by it before allocating.
	min int
}

// typePlan is a registered payload type: its wire name and compiled plan.
type typePlan struct {
	name string
	typ  reflect.Type
	fieldPlan
}

// registry is an immutable snapshot; Register publishes a new one, so the
// encode and decode paths look types up without locking.
type registry struct {
	byType map[reflect.Type]*typePlan
	byName map[string]*typePlan
}

var (
	registerMu sync.Mutex
	plans      atomic.Pointer[registry]
)

func init() {
	plans.Store(&registry{byType: map[reflect.Type]*typePlan{}, byName: map[string]*typePlan{}})
}

// Register makes a payload type encodable: Task.Value may then hold values
// of value's dynamic type. The type is compiled once into a field plan
// covering bool, signed and unsigned ints, floats, string, []byte, slices,
// maps and structs (exported fields only, like gob) built from them.
// Registering the same type again is a no-op, since several workflows share
// payload types. Register panics on a nil value, on a type with a field of
// any other kind or a recursive type, and on a type whose wire name (package
// path plus type name) is already taken by a different type, such as two
// function-local types of the same name in one package.
func Register(value any) {
	if value == nil {
		panic("codec: Register of nil value")
	}
	t := reflect.TypeOf(value)
	name := wireName(t)
	registerMu.Lock()
	defer registerMu.Unlock()
	cur := plans.Load()
	if p, ok := cur.byName[name]; ok {
		if p.typ == t {
			return
		}
		panic(fmt.Sprintf("codec: registering %v: name %q is already taken by a different type", t, name))
	}
	fp, err := compile(t, map[reflect.Type]bool{})
	if err != nil {
		panic(fmt.Sprintf("codec: registering %v: %v", t, err))
	}
	p := &typePlan{name: name, typ: t, fieldPlan: fp}
	next := &registry{byType: maps.Clone(cur.byType), byName: maps.Clone(cur.byName)}
	next.byType[t] = p
	next.byName[name] = p
	plans.Store(next)
}

// wireName names t on the wire: package path and name for defined types,
// built up structurally for unnamed slices and maps. Function-local types
// of one name in one package share a name; Register rejects the second.
func wireName(t reflect.Type) string {
	if t.Name() != "" {
		if t.PkgPath() == "" {
			return t.Name()
		}
		return t.PkgPath() + "." + t.Name()
	}
	switch t.Kind() {
	case reflect.Slice:
		return "[]" + wireName(t.Elem())
	case reflect.Map:
		return "map[" + wireName(t.Key()) + "]" + wireName(t.Elem())
	}
	return t.String()
}

// compile builds the plan of t; visiting holds the composite types being
// compiled on the current path, to reject recursive types.
func compile(t reflect.Type, visiting map[reflect.Type]bool) (fieldPlan, error) {
	switch t.Kind() {
	case reflect.Bool:
		return fieldPlan{encBool, decBool, 1}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return fieldPlan{encInt, decInt, 1}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return fieldPlan{encUint, decUint, 1}, nil
	case reflect.Float32:
		return fieldPlan{encFloat32, decFloat32, 4}, nil
	case reflect.Float64:
		return fieldPlan{encFloat64, decFloat64, 8}, nil
	case reflect.String:
		return fieldPlan{encString, decString, 1}, nil
	case reflect.Slice, reflect.Map, reflect.Struct:
	default:
		return fieldPlan{}, fmt.Errorf("%v has unsupported kind %v", t, t.Kind())
	}
	if visiting[t] {
		return fieldPlan{}, fmt.Errorf("%v is recursive", t)
	}
	visiting[t] = true
	defer delete(visiting, t)
	switch t.Kind() {
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return fieldPlan{encBytes, decBytes, 1}, nil
		}
		elem, err := compile(t.Elem(), visiting)
		if err != nil {
			return fieldPlan{}, err
		}
		return slicePlan(elem), nil
	case reflect.Map:
		key, err := compile(t.Key(), visiting)
		if err != nil {
			return fieldPlan{}, err
		}
		elem, err := compile(t.Elem(), visiting)
		if err != nil {
			return fieldPlan{}, err
		}
		return mapPlan(t, key, elem), nil
	default:
		return structPlan(t, visiting)
	}
}

// --- scalars ---

func encBool(dst []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decBool(s string, off int, v reflect.Value) (int, error) {
	if off >= len(s) {
		return off, fmt.Errorf("truncated bool")
	}
	switch s[off] {
	case 0:
		v.SetBool(false)
	case 1:
		v.SetBool(true)
	default:
		return off, fmt.Errorf("invalid bool byte 0x%02x", s[off])
	}
	return off + 1, nil
}

func encInt(dst []byte, v reflect.Value) []byte { return appendZigzag(dst, v.Int()) }

func decInt(s string, off int, v reflect.Value) (int, error) {
	x, off, err := readZigzag(s, off)
	if err != nil {
		return off, err
	}
	if v.OverflowInt(x) {
		return off, fmt.Errorf("%d overflows %v", x, v.Type())
	}
	v.SetInt(x)
	return off, nil
}

func encUint(dst []byte, v reflect.Value) []byte { return binary.AppendUvarint(dst, v.Uint()) }

func decUint(s string, off int, v reflect.Value) (int, error) {
	x, off, err := readUvarint(s, off)
	if err != nil {
		return off, err
	}
	if v.OverflowUint(x) {
		return off, fmt.Errorf("%d overflows %v", x, v.Type())
	}
	v.SetUint(x)
	return off, nil
}

func encFloat32(dst []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v.Float())))
}

func decFloat32(s string, off int, v reflect.Value) (int, error) {
	bits, off, err := readFixed32(s, off)
	if err != nil {
		return off, err
	}
	v.SetFloat(float64(math.Float32frombits(bits)))
	return off, nil
}

func encFloat64(dst []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
}

func decFloat64(s string, off int, v reflect.Value) (int, error) {
	bits, off, err := readFixed64(s, off)
	if err != nil {
		return off, err
	}
	v.SetFloat(math.Float64frombits(bits))
	return off, nil
}

func encString(dst []byte, v reflect.Value) []byte {
	str := v.String()
	dst = binary.AppendUvarint(dst, uint64(len(str)))
	return append(dst, str...)
}

// decString aliases the frame: a string is immutable, so the decoded value
// may share its bytes.
func decString(s string, off int, v reflect.Value) (int, error) {
	str, off, err := readString(s, off)
	if err != nil {
		return off, err
	}
	v.SetString(str)
	return off, nil
}

// --- composites: slices and maps are uvarint(0) for nil, else uvarint(n+1) ---

func appendLen(dst []byte, v reflect.Value) ([]byte, int) {
	if v.IsNil() {
		return append(dst, 0), -1
	}
	n := v.Len()
	return binary.AppendUvarint(dst, uint64(n)+1), n
}

// readLen reads a composite length prefix: -1 for nil, else the element
// count, which must fit the remaining bytes at min bytes per element.
func readLen(s string, off, min int) (int, int, error) {
	u, off, err := readUvarint(s, off)
	if err != nil {
		return -1, off, err
	}
	if u == 0 {
		return -1, off, nil
	}
	n := u - 1
	if n > uint64((len(s)-off)/max(min, 1)) {
		return -1, off, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(s)-off)
	}
	return int(n), off, nil
}

func encBytes(dst []byte, v reflect.Value) []byte {
	dst, n := appendLen(dst, v)
	if n <= 0 {
		return dst
	}
	return append(dst, v.Bytes()...)
}

func decBytes(s string, off int, v reflect.Value) (int, error) {
	n, off, err := readLen(s, off, 1)
	if err != nil {
		return off, err
	}
	setLen(v, n)
	if n > 0 {
		copy(v.Bytes(), s[off:off+n])
	}
	return off + n, nil
}

// setLen makes the slice v nil (n < 0) or a fresh slice of length n. It
// grows from nil rather than MakeSlice+Set, which would also box the slice
// header: one allocation per slice instead of two.
func setLen(v reflect.Value, n int) {
	v.SetZero()
	if n == 0 {
		v.Set(reflect.MakeSlice(v.Type(), 0, 0))
	} else if n > 0 {
		v.Grow(n)
		v.SetLen(n)
	}
}

func slicePlan(elem fieldPlan) fieldPlan {
	enc := func(dst []byte, v reflect.Value) []byte {
		dst, n := appendLen(dst, v)
		for i := 0; i < n; i++ {
			dst = elem.enc(dst, v.Index(i))
		}
		return dst
	}
	dec := func(s string, off int, v reflect.Value) (int, error) {
		n, off, err := readLen(s, off, elem.min)
		if err != nil {
			return off, err
		}
		setLen(v, n)
		for i := 0; i < n; i++ {
			if off, err = elem.dec(s, off, v.Index(i)); err != nil {
				return off, fmt.Errorf("[%d]: %w", i, err)
			}
		}
		return off, nil
	}
	return fieldPlan{enc, dec, 1}
}

func mapPlan(t reflect.Type, key, elem fieldPlan) fieldPlan {
	enc := func(dst []byte, v reflect.Value) []byte {
		dst, n := appendLen(dst, v)
		if n <= 0 {
			return dst
		}
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for it := v.MapRange(); it.Next(); {
			k.SetIterKey(it)
			e.SetIterValue(it)
			dst = key.enc(dst, k)
			dst = elem.enc(dst, e)
		}
		return dst
	}
	dec := func(s string, off int, v reflect.Value) (int, error) {
		n, off, err := readLen(s, off, key.min+elem.min)
		if err != nil {
			return off, err
		}
		if n < 0 {
			v.SetZero()
			return off, nil
		}
		m := reflect.MakeMapWithSize(t, n)
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for i := 0; i < n; i++ {
			if off, err = key.dec(s, off, k); err != nil {
				return off, fmt.Errorf("key %d: %w", i, err)
			}
			if off, err = elem.dec(s, off, e); err != nil {
				return off, fmt.Errorf("value %d: %w", i, err)
			}
			m.SetMapIndex(k, e)
		}
		v.Set(m)
		return off, nil
	}
	return fieldPlan{enc, dec, 1}
}

// structField is one exported field of a struct plan.
type structField struct {
	index int
	name  string
	fieldPlan
}

func structPlan(t reflect.Type, visiting map[reflect.Type]bool) (fieldPlan, error) {
	var fields []structField
	minSize := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fp, err := compile(f.Type, visiting)
		if err != nil {
			return fieldPlan{}, fmt.Errorf("field %s: %w", f.Name, err)
		}
		fields = append(fields, structField{i, f.Name, fp})
		minSize += fp.min
	}
	enc := func(dst []byte, v reflect.Value) []byte {
		for i := range fields {
			dst = fields[i].enc(dst, v.Field(fields[i].index))
		}
		return dst
	}
	dec := func(s string, off int, v reflect.Value) (int, error) {
		var err error
		for i := range fields {
			if off, err = fields[i].dec(s, off, v.Field(fields[i].index)); err != nil {
				return off, fmt.Errorf("%s: %w", fields[i].name, err)
			}
		}
		return off, nil
	}
	return fieldPlan{enc, dec, minSize}, nil
}
