package raid

import (
	"reflect"
	"testing"
)

// vetGuardedRaid mirrors the obs package's copy-safety audit for the raid
// layer's shared mutable state: a sync or sync/atomic field anywhere in the
// struct makes `go vet`'s copylocks check reject by-value copies.
func vetGuardedRaid(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		if pkg := t.PkgPath(); pkg == "sync" || pkg == "sync/atomic" {
			return true
		}
		for i := 0; i < t.NumField(); i++ {
			if vetGuardedRaid(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return vetGuardedRaid(t.Elem())
	}
	return false
}

func TestSharedStateIsCopylocksVisible(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Array{}),
		reflect.TypeOf(column{}),
		reflect.TypeOf(planMemo{}),
		reflect.TypeOf(journal{}),
	} {
		if !vetGuardedRaid(typ) {
			t.Errorf("%s must stay copylocks-visible so vet rejects by-value copies", typ)
		}
	}
}
