package harness

import (
	"reflect"
	"testing"

	"dpurpc/internal/offload"
	"dpurpc/internal/rpcrdma"
)

// TestKnobsDeclaredOnce: a deployment knob is declared in exactly one
// config struct, so no layer copies a value between two declarations (and
// none can drop one on the way).
func TestKnobsDeclaredOnce(t *testing.T) {
	exempt := map[string]string{
		"Tracer":   "one shared recorder the deployment hands to both sides, not a knob",
		"BusyPoll": "Options.BusyPoll picks the cost model's wake-up charge; every experiment sets the real loops itself",
	}
	declared := map[string]string{}
	for _, v := range []any{offload.DeployConfig{}, rpcrdma.Config{}, Options{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				continue
			}
			if prev, ok := declared[f.Name]; ok && exempt[f.Name] == "" {
				t.Errorf("%s is declared in both %s and %s", f.Name, prev, typ)
			}
			declared[f.Name] = typ.String()
		}
	}
}
