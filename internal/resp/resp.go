// Package resp implements the RESP2 wire protocol used by Redis clients and
// servers. It provides a value model plus buffered Reader/Writer types that
// parse and serialize protocol frames. Only the subset of the protocol needed
// by the dispel4py-style Redis mappings is implemented, but that subset is
// complete enough to talk to generic Redis tooling: simple strings, errors,
// integers, bulk strings (including nil) and (nested) arrays, as well as the
// inline command form some clients use for PING.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Type identifies the kind of a RESP value.
type Type byte

// RESP value kinds.
const (
	SimpleString Type = '+'
	Error        Type = '-'
	Integer      Type = ':'
	BulkString   Type = '$'
	Array        Type = '*'
)

// String returns a human-readable name for the type.
func (t Type) String() string {
	switch t {
	case SimpleString:
		return "simple-string"
	case Error:
		return "error"
	case Integer:
		return "integer"
	case BulkString:
		return "bulk-string"
	case Array:
		return "array"
	default:
		return fmt.Sprintf("unknown(%c)", byte(t))
	}
}

// Value is a single RESP protocol value. Nil bulk strings and nil arrays are
// represented with Null set to true.
type Value struct {
	Type  Type
	Str   string  // SimpleString, Error, BulkString payload
	Int   int64   // Integer payload
	Array []Value // Array payload
	Null  bool    // nil bulk string / nil array
}

// Common reusable values.
var (
	OK   = Value{Type: SimpleString, Str: "OK"}
	Pong = Value{Type: SimpleString, Str: "PONG"}
	Nil  = Value{Type: BulkString, Null: true}
)

// Str returns a bulk string value.
func Str(s string) Value { return Value{Type: BulkString, Str: s} }

// Simple returns a simple string value.
func Simple(s string) Value { return Value{Type: SimpleString, Str: s} }

// Int returns an integer value.
func Int(n int64) Value { return Value{Type: Integer, Int: n} }

// Err returns an error value with the conventional upper-case prefix already
// included by the caller (for example "ERR unknown command").
func Err(msg string) Value { return Value{Type: Error, Str: msg} }

// Errf formats an error value.
func Errf(format string, args ...any) Value {
	return Err(fmt.Sprintf(format, args...))
}

// Arr returns an array value.
func Arr(vals ...Value) Value { return Value{Type: Array, Array: vals} }

// NilArray is the nil array reply (e.g. XREADGROUP timeout).
func NilArray() Value { return Value{Type: Array, Null: true} }

// StrArray builds an array of bulk strings.
func StrArray(ss ...string) Value {
	vals := make([]Value, len(ss))
	for i, s := range ss {
		vals[i] = Str(s)
	}
	return Arr(vals...)
}

// IsNull reports whether the value is a nil bulk string or nil array.
func (v Value) IsNull() bool { return v.Null }

// Text returns the string payload of a value, converting integers when
// necessary. It is what a Redis client means by "the reply, as a string".
func (v Value) Text() string {
	switch v.Type {
	case Integer:
		return strconv.FormatInt(v.Int, 10)
	default:
		return v.Str
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type || v.Null != o.Null {
		return false
	}
	switch v.Type {
	case Integer:
		return v.Int == o.Int
	case Array:
		if len(v.Array) != len(o.Array) {
			return false
		}
		for i := range v.Array {
			if !v.Array[i].Equal(o.Array[i]) {
				return false
			}
		}
		return true
	default:
		return v.Str == o.Str
	}
}

// ErrProtocol is returned when the peer sends malformed RESP data.
var ErrProtocol = errors.New("resp: protocol error")

// MaxBulkLen caps bulk string payloads to guard against hostile or corrupt
// length prefixes. 64 MiB is far above anything the workflow engine sends.
const MaxBulkLen = 64 << 20

// MaxArrayLen caps array element counts for the same reason.
const MaxArrayLen = 1 << 20

// Reader decodes RESP values from a stream.
type Reader struct {
	br *bufio.Reader
}

// NewReader wraps r in a RESP decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 16*1024)}
}

// ReadValue reads one complete RESP value.
func (r *Reader) ReadValue() (Value, error) {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch Type(prefix) {
	case SimpleString, Error:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: Type(prefix), Str: string(line)}, nil
	case Integer:
		line, err := r.readLine()
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad integer %q", ErrProtocol, line)
		}
		return Value{Type: Integer, Int: n}, nil
	case BulkString:
		return r.readBulk()
	case Array:
		return r.readArray()
	default:
		return Value{}, fmt.Errorf("%w: unexpected type byte %q", ErrProtocol, prefix)
	}
}

// ReadCommand reads one client command: either a RESP array of bulk strings
// or an inline command line ("PING\r\n"). It returns the argv.
func (r *Reader) ReadCommand() ([]string, error) {
	prefix, err := r.br.ReadByte()
	if err != nil {
		return nil, err
	}
	if Type(prefix) == Array {
		v, err := r.readArray()
		if err != nil {
			return nil, err
		}
		if v.Null || len(v.Array) == 0 {
			return nil, fmt.Errorf("%w: empty command array", ErrProtocol)
		}
		argv := make([]string, len(v.Array))
		for i, elem := range v.Array {
			if elem.Type != BulkString || elem.Null {
				return nil, fmt.Errorf("%w: command element %d is %s, want bulk string", ErrProtocol, i, elem.Type)
			}
			argv[i] = elem.Str
		}
		return argv, nil
	}
	// Inline command: the prefix byte is part of the first word.
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	full := append([]byte{prefix}, line...)
	fields := bytes.Fields(full)
	if len(fields) == 0 {
		return nil, fmt.Errorf("%w: empty inline command", ErrProtocol)
	}
	argv := make([]string, len(fields))
	for i, f := range fields {
		argv[i] = string(f)
	}
	return argv, nil
}

func (r *Reader) readBulk() (Value, error) {
	line, err := r.readLine()
	if err != nil {
		return Value{}, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return Value{}, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, line)
	}
	if n == -1 {
		return Value{Type: BulkString, Null: true}, nil
	}
	if n < 0 || n > MaxBulkLen {
		return Value{}, fmt.Errorf("%w: bulk length %d out of range", ErrProtocol, n)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return Value{}, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return Value{}, fmt.Errorf("%w: bulk string missing CRLF terminator", ErrProtocol)
	}
	return Value{Type: BulkString, Str: string(buf[:n])}, nil
}

func (r *Reader) readArray() (Value, error) {
	line, err := r.readLine()
	if err != nil {
		return Value{}, err
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return Value{}, fmt.Errorf("%w: bad array length %q", ErrProtocol, line)
	}
	if n == -1 {
		return Value{Type: Array, Null: true}, nil
	}
	if n < 0 || n > MaxArrayLen {
		return Value{}, fmt.Errorf("%w: array length %d out of range", ErrProtocol, n)
	}
	vals := make([]Value, 0, n)
	for i := int64(0); i < n; i++ {
		v, err := r.ReadValue()
		if err != nil {
			return Value{}, err
		}
		vals = append(vals, v)
	}
	return Value{Type: Array, Array: vals}, nil
}

// readLine reads up to CRLF and returns the line without the terminator.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line missing CRLF", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// Writer encodes RESP values onto a stream.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w in a RESP encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 16*1024)}
}

// WriteValue serializes one value. Call Flush to push buffered bytes.
func (w *Writer) WriteValue(v Value) error {
	switch v.Type {
	case SimpleString:
		return w.line('+', v.Str)
	case Error:
		return w.line('-', v.Str)
	case Integer:
		return w.line(':', strconv.FormatInt(v.Int, 10))
	case BulkString:
		if v.Null {
			return w.line('$', "-1")
		}
		if err := w.line('$', strconv.Itoa(len(v.Str))); err != nil {
			return err
		}
		if _, err := w.bw.WriteString(v.Str); err != nil {
			return err
		}
		_, err := w.bw.WriteString("\r\n")
		return err
	case Array:
		if v.Null {
			return w.line('*', "-1")
		}
		if err := w.line('*', strconv.Itoa(len(v.Array))); err != nil {
			return err
		}
		for _, elem := range v.Array {
			if err := w.WriteValue(elem); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("resp: cannot encode type %q", byte(v.Type))
	}
}

// WriteCommand serializes argv as an array of bulk strings and flushes.
func (w *Writer) WriteCommand(argv ...string) error {
	if err := w.WriteCommandBuffered(argv...); err != nil {
		return err
	}
	return w.Flush()
}

// WriteCommandBuffered serializes argv without flushing, so several commands
// can share one network write — the primitive behind client pipelining.
func (w *Writer) WriteCommandBuffered(argv ...string) error {
	if err := w.line('*', strconv.Itoa(len(argv))); err != nil {
		return err
	}
	for _, a := range argv {
		if err := w.WriteValue(Str(a)); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

func (w *Writer) line(prefix byte, body string) error {
	if err := w.bw.WriteByte(prefix); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(body); err != nil {
		return err
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}
