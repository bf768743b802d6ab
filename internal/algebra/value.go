// Package algebra defines the relational algebra used throughout the
// materialized-view design framework: column types and values, schemas,
// predicates (selection and join conditions), and logical plan nodes
// (Scan, Select, Project, Join).
//
// The package is deliberately self-contained: it knows nothing about
// statistics, costs, or execution. Canonical string forms produced here are
// the basis for common-subexpression detection in the MVPP layer, and value
// evaluation here is the basis for the executing engine.
package algebra

import (
	"fmt"
	"strconv"
	"time"
)

// Type identifies the domain of a column or value.
type Type int

// Supported column types. Dates are stored as days since the Unix epoch so
// that range predicates (e.g. the paper's "date > 7/1/96") reduce to integer
// comparison.
const (
	TypeInt Type = iota + 1
	TypeFloat
	TypeString
	TypeDate
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeDate:
		return "date"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Value is a dynamically typed scalar. The zero Value is invalid; construct
// values with IntVal, FloatVal, StringVal or DateVal.
type Value struct {
	Kind  Type
	Int   int64 // TypeInt and TypeDate payload
	Float float64
	Str   string
}

// IntVal returns an integer value.
func IntVal(v int64) Value { return Value{Kind: TypeInt, Int: v} }

// FloatVal returns a floating-point value.
func FloatVal(v float64) Value { return Value{Kind: TypeFloat, Float: v} }

// StringVal returns a string value.
func StringVal(v string) Value { return Value{Kind: TypeString, Str: v} }

// DateVal returns a date value from days since the Unix epoch.
func DateVal(epochDays int64) Value { return Value{Kind: TypeDate, Int: epochDays} }

// ParseDate parses "YYYY-MM-DD" or the paper's "M/D/YY" form into a date
// value.
func ParseDate(s string) (Value, error) {
	for _, layout := range []string{"2006-01-02", "1/2/06", "1/2/2006"} {
		t, err := time.Parse(layout, s)
		if err == nil {
			return DateVal(t.Unix() / 86400), nil
		}
	}
	return Value{}, fmt.Errorf("algebra: cannot parse date %q", s)
}

// IsValid reports whether the value was constructed with a known type.
func (v Value) IsValid() bool {
	switch v.Kind {
	case TypeInt, TypeFloat, TypeString, TypeDate:
		return true
	default:
		return false
	}
}

// String renders the value in its canonical literal form. Strings are
// quoted; dates render as YYYY-MM-DD.
func (v Value) String() string {
	var buf [32]byte
	return string(v.Append(buf[:0]))
}

// Append appends the value's String rendering to b.
func (v Value) Append(b []byte) []byte {
	switch v.Kind {
	case TypeInt:
		return strconv.AppendInt(b, v.Int, 10)
	case TypeFloat:
		return strconv.AppendFloat(b, v.Float, 'g', -1, 64)
	case TypeString:
		return strconv.AppendQuote(b, v.Str)
	case TypeDate:
		return time.Unix(v.Int*86400, 0).UTC().AppendFormat(b, "2006-01-02")
	default:
		return append(b, "<invalid>"...)
	}
}

// numeric reports whether the value can participate in numeric comparison
// and returns its float64 image.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case TypeInt, TypeDate:
		return float64(v.Int), true
	case TypeFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o. Values of
// different kinds compare numerically when both are numeric (int, float,
// date); otherwise comparison is an error.
func (v Value) Compare(o Value) (int, error) {
	if v.Kind == TypeString || o.Kind == TypeString {
		if v.Kind != TypeString || o.Kind != TypeString {
			return 0, fmt.Errorf("algebra: cannot compare %s with %s", v.Kind, o.Kind)
		}
		switch {
		case v.Str < o.Str:
			return -1, nil
		case v.Str > o.Str:
			return 1, nil
		default:
			return 0, nil
		}
	}
	a, okA := v.numeric()
	b, okB := o.numeric()
	if !okA || !okB {
		return 0, fmt.Errorf("algebra: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch {
	case a < b:
		return -1, nil
	case a > b:
		return 1, nil
	default:
		return 0, nil
	}
}

// Equal reports whether two values compare equal. Comparison errors (type
// mismatch involving strings) report false.
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c == 0
}
