// Package storage implements the columnar in-memory storage substrate:
// typed values, columns, fixed-size blocks, tables, a catalog, and
// per-column statistics. Every AQP technique in this repository executes
// against this substrate.
package storage

import (
	"fmt"
	"strconv"
	"strings"
)

// Type identifies the runtime type of a Value or Column.
type Type uint8

// Supported column types.
const (
	TypeInvalid Type = iota
	TypeInt64
	TypeFloat64
	TypeString
	TypeBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	default:
		return "INVALID"
	}
}

// Numeric reports whether the type supports arithmetic.
func (t Type) Numeric() bool { return t == TypeInt64 || t == TypeFloat64 }

// Value is a dynamically typed scalar. The zero Value is NULL.
type Value struct {
	Typ  Type
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// NullValue returns a typed NULL.
func NullValue(t Type) Value { return Value{Typ: t, Null: true} }

// Int64 wraps an int64.
func Int64(v int64) Value { return Value{Typ: TypeInt64, I: v} }

// Float64 wraps a float64.
func Float64(v float64) Value { return Value{Typ: TypeFloat64, F: v} }

// Str wraps a string.
func Str(v string) Value { return Value{Typ: TypeString, S: v} }

// Bool wraps a bool.
func Bool(v bool) Value { return Value{Typ: TypeBool, B: v} }

// IsNull reports whether the value is NULL (including the zero Value).
func (v Value) IsNull() bool { return v.Null || v.Typ == TypeInvalid }

// AsFloat converts a numeric value to float64. NULL converts to 0.
func (v Value) AsFloat() float64 {
	switch v.Typ {
	case TypeInt64:
		return float64(v.I)
	case TypeFloat64:
		return v.F
	case TypeBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Typ {
	case TypeInt64:
		return v.I
	case TypeFloat64:
		return int64(v.F)
	case TypeBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.Typ {
	case TypeInt64:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "INVALID"
	}
}

// Equal reports deep equality of two values. NULLs are equal to NULLs of
// any type; this is the grouping (not SQL ternary) notion of equality.
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return v.IsNull() && o.IsNull()
	}
	if v.Typ != o.Typ {
		if v.Typ.Numeric() && o.Typ.Numeric() {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.Typ {
	case TypeInt64:
		return v.I == o.I
	case TypeFloat64:
		return v.F == o.F
	case TypeString:
		return v.S == o.S
	case TypeBool:
		return v.B == o.B
	}
	return false
}

// Compare orders two non-NULL values of compatible types.
// NULL sorts before everything. Returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	switch {
	case v.IsNull() && o.IsNull():
		return 0
	case v.IsNull():
		return -1
	case o.IsNull():
		return 1
	}
	if v.Typ.Numeric() && o.Typ.Numeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	switch v.Typ {
	case TypeString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	case TypeBool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		default:
			return 0
		}
	}
	return 0
}

// GroupKey renders a value as a canonical string usable as a map key for
// grouping and join hashing. Integers and floats with identical numeric
// value produce identical keys.
func (v Value) GroupKey() string {
	if v.IsNull() {
		return nullKey
	}
	switch v.Typ {
	case TypeInt64:
		return intKey(v.I)
	case TypeFloat64:
		if v.F == float64(int64(v.F)) {
			return intKey(int64(v.F))
		}
		return "f" + strconv.FormatFloat(v.F, 'b', -1, 64)
	case TypeString:
		return "s" + v.S
	case TypeBool:
		if v.B {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// intKey renders an integer's group key, "i" + base 36, in one allocation.
func intKey(i int64) string {
	var buf [16]byte // 'i', a sign, 13 digits
	return string(strconv.AppendInt(append(buf[:0], 'i'), i, 36))
}

// ParseValue parses text into a value of the given type, the one rule for
// every CSV cell: surrounding whitespace is trimmed, an empty cell or NULL
// in any case is NULL, and a BOOLEAN is true or false in any case.
func ParseValue(t Type, s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "null") {
		return NullValue(t), nil
	}
	switch t {
	case TypeInt64:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("storage: parse %q as BIGINT: %w", s, err)
		}
		return Int64(i), nil
	case TypeFloat64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("storage: parse %q as DOUBLE: %w", s, err)
		}
		return Float64(f), nil
	case TypeString:
		return Str(s), nil
	case TypeBool:
		switch {
		case strings.EqualFold(s, "true"):
			return Bool(true), nil
		case strings.EqualFold(s, "false"):
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("storage: parse %q as BOOLEAN: want true or false", s)
	}
	return Value{}, fmt.Errorf("storage: parse into invalid type")
}
