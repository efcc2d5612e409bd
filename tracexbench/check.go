package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
)

// sameBits reports where two values first differ, or nil when they are
// identical: every float compared by its bit pattern, every other scalar by
// value, structs field by field (unexported fields too), slices and maps
// element by element. A nil slice or map equals an empty one, because JSON
// and the store codec do not preserve that distinction; a missing element
// or a zeroed field is a difference.
func sameBits(want, got any) error {
	return diffValue("", reflect.ValueOf(want), reflect.ValueOf(got))
}

func diffValue(path string, a, b reflect.Value) error {
	if !a.IsValid() || !b.IsValid() {
		if a.IsValid() != b.IsValid() {
			return fmt.Errorf("%s: one side is nil", pathOrRoot(path))
		}
		return nil
	}
	if a.Type() != b.Type() {
		return fmt.Errorf("%s: type %s vs %s", pathOrRoot(path), a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%s: %v vs %v", pathOrRoot(path), a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s: %d vs %d", pathOrRoot(path), a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Errorf("%s: %d vs %d", pathOrRoot(path), a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf("%s: %t vs %t", pathOrRoot(path), a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf("%s: %q vs %q", pathOrRoot(path), a.String(), b.String())
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s: one side is nil", pathOrRoot(path))
			}
			return nil
		}
		return diffValue(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := diffValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d vs %d", pathOrRoot(path), a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := diffValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d keys vs %d", pathOrRoot(path), a.Len(), b.Len())
		}
		keys := a.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Errorf("%s[%v]: missing", pathOrRoot(path), k)
			}
			if err := diffValue(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%s: cannot compare kind %s", pathOrRoot(path), a.Kind())
	}
	return nil
}

func pathOrRoot(p string) string {
	if p == "" {
		return "value"
	}
	return p
}

// withinRel reports whether got is within rel (relative) of want. It is
// for values that depend on the interval extrapolation, whose posterior
// weights are summed in map order and so may differ in their last bits
// between two identical calls (see NOTES.md).
func withinRel(want, got, rel float64) bool {
	if want == got {
		return true
	}
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// intervalRelTol is the relative tolerance for comparing interval-derived
// values across independent extrapolations.
const intervalRelTol = 1e-12

// tableIGate is the paper's Table I accuracy bar: an extrapolated
// prediction must land within 10% of the prediction from the collected
// signature at the same scale.
const tableIGate = 10.0

// errPct is the extrapolation error in percent of the collected value.
func errPct(extrapolated, collected float64) float64 {
	return 100 * math.Abs(extrapolated-collected) / collected
}

// checkErrPct validates an extrapolation error against the Table I gate.
func checkErrPct(what string, pct float64) error {
	if math.IsNaN(pct) || pct > tableIGate {
		return fmt.Errorf("%s: extrapolation error %.4g%% exceeds the %.0f%% Table I gate", what, pct, tableIGate)
	}
	return nil
}
