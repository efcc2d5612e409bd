package expt

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/expt.golden.json")

// goldenPath pins every experiment's rows bit for bit: the shape tests
// assert the paper's qualitative claims, the golden catches any numeric
// drift a refactor of the pipeline underneath them introduces.
var goldenPath = filepath.Join("testdata", "expt.golden.json")

// checkGolden compares rows against the recorded entry for name, or records
// them under -update. Floats are compared by bit pattern.
func checkGolden(t *testing.T, name string, rows any) {
	t.Helper()
	got, err := json.Marshal(goldenValue(reflect.ValueOf(rows)))
	if err != nil {
		t.Fatalf("golden %s: %v", name, err)
	}
	entries := map[string]json.RawMessage{}
	if b, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(b, &entries); err != nil {
			t.Fatalf("golden: %v", err)
		}
	} else if !*update {
		t.Fatalf("golden: %v (run with -update to record)", err)
	}
	if *update {
		entries[name] = got
		b, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatalf("golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("golden: %v", err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		return
	}
	want, ok := entries[name]
	if !ok {
		t.Fatalf("golden: no entry for %s (run with -update to record)", name)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, want); err != nil {
		t.Fatalf("golden %s: %v", name, err)
	}
	if !bytes.Equal(buf.Bytes(), got) {
		t.Errorf("golden %s drifted:\n got %s\nwant %s", name, got, buf.Bytes())
	}
}

// goldenValue renders v as plain JSON data with every float64 replaced by
// its Float64bits in hex, so the comparison is exact.
func goldenValue(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float64:
		return fmt.Sprintf("%016x", math.Float64bits(v.Float()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return goldenValue(v.Elem())
	case reflect.Struct:
		m := map[string]any{}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				m[f.Name] = goldenValue(v.Field(i))
			}
		}
		return m
	case reflect.Slice, reflect.Array:
		s := make([]any, v.Len())
		for i := range s {
			s[i] = goldenValue(v.Index(i))
		}
		return s
	case reflect.Map:
		m := map[string]any{}
		for it := v.MapRange(); it.Next(); {
			m[fmt.Sprint(it.Key().Interface())] = goldenValue(it.Value())
		}
		return m
	default:
		return v.Interface()
	}
}
