package harness

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"dpurpc/internal/offload"
	"dpurpc/internal/rpcrdma"
)

// maxKnobs bounds the named fields of the three config structs together.
// It only ratchets down: a new knob must replace an old one.
const maxKnobs = 29

// TestKnobsDeclaredOnce: a deployment knob is declared in exactly one
// config struct, so no layer copies a value between two declarations (and
// none can drop one on the way), and the structs together stay within
// maxKnobs. Two fields are one knob when their names match once a side
// prefix is stripped: a DeployConfig.ClientX repeats Config.X.
func TestKnobsDeclaredOnce(t *testing.T) {
	exempt := map[string]string{
		"Tracer":   "one shared recorder the deployment hands to both sides, not a knob",
		"BusyPoll": "Options.BusyPoll picks the cost model's wake-up charge; every experiment sets the real loops itself",
		"Workers":  "DeployConfig.DPUWorkers is ignored, and goes with ROADMAP 2(v)",
	}
	declared := map[string][]string{} // stem -> its "struct.Field"s
	knobs := 0
	for _, v := range []any{offload.DeployConfig{}, rpcrdma.Config{}, Options{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				continue
			}
			knobs++
			st, at := knobStem(f.Name), typ.String()+"."+f.Name
			for _, prev := range declared[st] {
				if !strings.HasPrefix(prev, typ.String()+".") && exempt[st] == "" {
					t.Errorf("%s and %s declare one knob", prev, at)
				}
			}
			declared[st] = append(declared[st], at)
		}
	}
	if knobs > maxKnobs {
		t.Errorf("%d named config fields, want at most %d: remove a knob before adding one", knobs, maxKnobs)
	}
}

// knobStem strips a side prefix (Client, Server, DPU, Host) from a field
// name: DPUWorkers and HostWorkers both stem to Workers.
func knobStem(name string) string {
	for _, side := range []string{"Client", "Server", "DPU", "Host"} {
		if rest, ok := strings.CutPrefix(name, side); ok && rest != "" && unicode.IsUpper(rune(rest[0])) {
			return rest
		}
	}
	return name
}

// maxDesignBytes bounds DESIGN.md. It only ratchets down: a change that
// grows DESIGN.md must shrink it somewhere else (history belongs in
// CHANGES.md), and one that shrinks it may lower the bound.
const maxDesignBytes = 106689

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
