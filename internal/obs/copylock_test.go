package obs

import (
	"reflect"
	"testing"
)

// vetGuarded reports whether t transitively contains a sync or sync/atomic
// type. Those all embed a noCopy marker, so `go vet`'s copylocks check —
// which CI runs on every push — rejects any by-value copy of a struct that
// contains one. This is the repo's copy-safety audit for the metrics types:
// if a field is ever changed to a plain integer, this test fails and the
// type needs an explicit noCopy guard instead.
func vetGuarded(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		if pkg := t.PkgPath(); pkg == "sync" || pkg == "sync/atomic" {
			return true
		}
		for i := 0; i < t.NumField(); i++ {
			if vetGuarded(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return vetGuarded(t.Elem())
	}
	return false
}

func TestMetricsTypesAreCopylocksVisible(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Counter{}),
		reflect.TypeOf(Histogram{}),
		reflect.TypeOf(IOMetrics{}),
		reflect.TypeOf(LoadWindow{}),
	} {
		if !vetGuarded(typ) {
			t.Errorf("%s is documented as must-not-copy but carries no vet-visible lock guard", typ)
		}
	}
}
