package algebra

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndString(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Type
		str  string
	}{
		{"int", IntVal(42), TypeInt, "42"},
		{"negative int", IntVal(-7), TypeInt, "-7"},
		{"float", FloatVal(2.5), TypeFloat, "2.5"},
		{"string", StringVal("LA"), TypeString, `"LA"`},
		{"date epoch", DateVal(0), TypeDate, "1970-01-01"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind != tt.kind {
				t.Errorf("kind = %v, want %v", tt.v.Kind, tt.kind)
			}
			if got := tt.v.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
			if !tt.v.IsValid() {
				t.Error("IsValid() = false, want true")
			}
		})
	}
}

func TestZeroValueInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Error("zero Value should be invalid")
	}
	if v.String() != "<invalid>" {
		t.Errorf("String() = %q", v.String())
	}
}

// Property: String, and Append after whatever b held, render the literal
// forms group keys and the lineage digest are keyed on — written out here
// with the strconv and time calls that defined them.
func TestValueStringFormat(t *testing.T) {
	literal := func(v Value) string {
		switch v.Kind {
		case TypeInt:
			return strconv.FormatInt(v.Int, 10)
		case TypeFloat:
			return strconv.FormatFloat(v.Float, 'g', -1, 64)
		case TypeString:
			return strconv.Quote(v.Str)
		case TypeDate:
			return time.Unix(v.Int*86400, 0).UTC().Format("2006-01-02")
		default:
			return "<invalid>"
		}
	}
	check := func(v Value) bool {
		return v.String() == literal(v) && string(v.Append([]byte("p|"))) == "p|"+literal(v)
	}
	f := func(kind uint8, i int64, fl float64, s string) bool {
		return check(Value{Kind: Type(kind % 6), Int: i, Float: fl, Str: s})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []Value{FloatVal(math.NaN()), FloatVal(math.Copysign(0, -1)), FloatVal(math.Inf(-1)),
		StringVal("a\"|\xff"), StringVal(strings.Repeat("long \"quoted\" string|", 4)), DateVal(-719528),
		DateVal(1 << 31), IntVal(math.MinInt64)} {
		if !check(v) {
			t.Errorf("%#v renders %q, want %q", v, v.String(), literal(v))
		}
	}
}

func TestParseDate(t *testing.T) {
	tests := []struct {
		in      string
		want    string // round-trip String()
		wantErr bool
	}{
		{"1996-07-01", "1996-07-01", false},
		{"7/1/96", "1996-07-01", false},
		{"7/1/1996", "1996-07-01", false},
		{"12/31/99", "1999-12-31", false},
		{"not-a-date", "", true},
		{"", "", true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			v, err := ParseDate(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseDate(%q) succeeded, want error", tt.in)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseDate(%q): %v", tt.in, err)
			}
			if v.Kind != TypeDate {
				t.Errorf("kind = %v, want date", v.Kind)
			}
			if got := v.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Value
		want    int
		wantErr bool
	}{
		{"int lt", IntVal(1), IntVal(2), -1, false},
		{"int eq", IntVal(5), IntVal(5), 0, false},
		{"int gt", IntVal(9), IntVal(2), 1, false},
		{"float vs int", FloatVal(1.5), IntVal(2), -1, false},
		{"int vs float", IntVal(3), FloatVal(2.5), 1, false},
		{"date order", DateVal(9678), DateVal(9679), -1, false},
		{"date vs int numeric", DateVal(10), IntVal(10), 0, false},
		{"string lt", StringVal("LA"), StringVal("SF"), -1, false},
		{"string eq", StringVal("LA"), StringVal("LA"), 0, false},
		{"string gt", StringVal("SF"), StringVal("LA"), 1, false},
		{"string vs int error", StringVal("1"), IntVal(1), 0, true},
		{"int vs string error", IntVal(1), StringVal("1"), 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.a.Compare(tt.b)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("Compare succeeded with %d, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("Compare: %v", err)
			}
			if got != tt.want {
				t.Errorf("Compare = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestValueEqual(t *testing.T) {
	if !IntVal(3).Equal(FloatVal(3)) {
		t.Error("3 should equal 3.0 numerically")
	}
	if IntVal(3).Equal(StringVal("3")) {
		t.Error("int and string must not be equal")
	}
	if !StringVal("x").Equal(StringVal("x")) {
		t.Error("identical strings should be equal")
	}
}

// Property: Compare is antisymmetric for ints.
func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := IntVal(a).Compare(IntVal(b))
		y, err2 := IntVal(b).Compare(IntVal(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive-consistent for string triples (if a<b and
// b<c then a<c).
func TestValueCompareTransitiveStrings(t *testing.T) {
	f := func(a, b, c string) bool {
		ab, _ := StringVal(a).Compare(StringVal(b))
		bc, _ := StringVal(b).Compare(StringVal(c))
		ac, _ := StringVal(a).Compare(StringVal(c))
		if ab < 0 && bc < 0 {
			return ac < 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueCompareFloatsTotal(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN ordering unspecified; engine never produces NaN
		}
		c, err := FloatVal(a).Compare(FloatVal(b))
		if err != nil {
			return false
		}
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
