package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"testing"
)

// TestMain makes the test binary act as dpurpc-bench when runMainEnv is
// set, so a test can run the command and read its stdout.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "DPURPC_RUN_MAIN"

// TestJSONIsOneDocumentPerExperiment runs the cheap experiments with
// -format json and reads stdout as a JSON stream to EOF: each experiment
// writes exactly one {"experiment": name, "rows": ...} document and no
// text table.
func TestJSONIsOneDocumentPerExperiment(t *testing.T) {
	for _, name := range []string{"table1", "allocator", "blocksweep", "fig7"} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-experiment", name, "-format", "json",
				"-requests", "2000", "-fig7-wall-iters", "2")
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("dpurpc-bench: %v", err)
			}
			dec := json.NewDecoder(bytes.NewReader(out))
			var docs []document
			for {
				var d document
				err := dec.Decode(&d)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("output is not a JSON stream: %v\n%s", err, out)
				}
				docs = append(docs, d)
			}
			if len(docs) != 1 || docs[0].Experiment != name || docs[0].Rows == nil {
				t.Fatalf("want one %q document with rows, got %+v", name, docs)
			}
		})
	}
}

// TestFlagsReachBothSides: -host-workers sets the host side's duplex width,
// and the Fig. 8 offload rows echo what their deployment ran with.
func TestFlagsReachBothSides(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "fig8a", "-host-workers", "4",
		"-requests", "2000", "-format", "json")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dpurpc-bench: %v", err)
	}
	var doc struct {
		Experiment string
		Rows       []struct {
			Mode        string
			HostWorkers int
		}
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, out)
	}
	offloaded := 0
	for _, r := range doc.Rows {
		if r.Mode != "dpu-offload" {
			continue
		}
		offloaded++
		if r.HostWorkers != 4 {
			t.Errorf("offload row ran HostWorkers %d, want 4", r.HostWorkers)
		}
	}
	if offloaded == 0 {
		t.Fatalf("no dpu-offload rows in %s document", doc.Experiment)
	}
}
