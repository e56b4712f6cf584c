package harness

import (
	"os"
	"reflect"
	"testing"

	"dpurpc/internal/offload"
	"dpurpc/internal/rpcrdma"
)

// maxKnobs bounds the named fields of the three config structs together.
// It only ratchets down: a new knob must replace an old one.
const maxKnobs = 36

// TestKnobsDeclaredOnce: a deployment knob is declared in exactly one
// config struct, so no layer copies a value between two declarations (and
// none can drop one on the way), and the structs together stay within
// maxKnobs.
func TestKnobsDeclaredOnce(t *testing.T) {
	exempt := map[string]string{
		"Tracer":   "one shared recorder the deployment hands to both sides, not a knob",
		"BusyPoll": "Options.BusyPoll picks the cost model's wake-up charge; every experiment sets the real loops itself",
	}
	declared := map[string]string{}
	knobs := 0
	for _, v := range []any{offload.DeployConfig{}, rpcrdma.Config{}, Options{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				continue
			}
			knobs++
			if prev, ok := declared[f.Name]; ok && exempt[f.Name] == "" {
				t.Errorf("%s is declared in both %s and %s", f.Name, prev, typ)
			}
			declared[f.Name] = typ.String()
		}
	}
	if knobs > maxKnobs {
		t.Errorf("%d named config fields, want at most %d: remove a knob before adding one", knobs, maxKnobs)
	}
}

// maxDesignBytes bounds DESIGN.md. It only ratchets down: a change that
// grows DESIGN.md must shrink it somewhere else (history belongs in
// CHANGES.md), and one that shrinks it may lower the bound.
const maxDesignBytes = 106812

// TestDesignDocDoesNotGrow holds DESIGN.md within maxDesignBytes.
func TestDesignDocDoesNotGrow(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) > maxDesignBytes {
		t.Errorf("DESIGN.md is %d bytes, want at most %d: shrink it elsewhere before adding to it", len(doc), maxDesignBytes)
	}
}
