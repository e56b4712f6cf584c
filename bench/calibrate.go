package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// Floors of the derived bounds: no timed metric is gated tighter than 5 %,
// no count tighter than 2 %.
const (
	floorTimed = 0.05
	floorCount = 0.02
	// demoteAbove is the set-to-set difference beyond which a timed metric
	// is demoted to the ungated rows instead of given a wider bound. The
	// exceptions are setup_s, which the contract requires, and rps, without
	// which nothing is gated under load: they stay, at the contract's cap.
	demoteAbove = 0.10
)

func isCount(name string) bool { return strings.HasPrefix(name, "alloc") }

// calibrated lists the gated metrics and, after them, the timed metric an
// earlier calibration demoted, so that every calibration shows whether it
// has become steady enough to gate again.
func calibrated() []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	for _, d := range perLayer {
		if d.Name == "proc.lat_p99_us" {
			defs = append(defs, d)
		}
	}
	return defs
}

// runCalibration runs n full sets back to back, each with its own seed, and
// writes to out, as Markdown, per workload x metric: min / median / max, the
// largest set-to-set relative difference, the spread between the quartiles
// as a share of the median, and the bound the rule derives. The last line of
// out is the history.jsonl record of the medians.
func runCalibration(defs []workloadDef, cfg config, n int, out, log io.Writer) error {
	if n < 3 {
		return fmt.Errorf("-calibrate needs at least 3 sets, got %d", n)
	}
	sets := make([][]*result, n)
	for i := range sets {
		c := cfg
		c.seed = cfg.seed + uint32(i)
		fmt.Fprintf(log, "\n=== calibration set %d of %d (seed %d) ===\n", i+1, n, c.seed)
		rs, err := runSet(defs, c, log)
		if err != nil {
			return fmt.Errorf("set %d: %w", i+1, err)
		}
		for _, r := range rs {
			if !r.correct() {
				return fmt.Errorf("set %d: %s: %d of %d requests failed", i+1, r.Workload, r.Failed, r.Attempted)
			}
		}
		sets[i] = rs
	}

	fmt.Fprintf(out, "# Calibration\n\n")
	fmt.Fprintf(out, "- date: %s\n- nproc: %d, GOMAXPROCS %d\n- cpu: %s\n- go: %s\n",
		time.Now().UTC().Format("2006-01-02"), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Fprintf(out, "- %d sets, seeds %d..%d, %d round(s) x %d window(s) x %v per workload and set\n\n",
		n, cfg.seed, cfg.seed+uint32(n-1), cfg.rounds, cfg.windows, cfg.windowDur)
	fmt.Fprintf(out, "`diff` is the largest relative difference between any two sets; `iqr` is the distance between the quartiles as a share of the median.\n\n")

	worst := map[string]float64{}
	history := map[string]map[string]float64{}
	for wi, w := range defs {
		fmt.Fprintf(out, "## %s\n\n| metric | unit | min | median | max | diff | iqr |\n|---|---|---|---|---|---|---|\n", w.Name)
		history[w.Name] = map[string]float64{}
		var attempted []float64
		for _, d := range calibrated() {
			var vs []float64
			for _, rs := range sets {
				vs = append(vs, rs[wi].Values[d.Name])
			}
			lo, hi, med := quantile(vs, 0), quantile(vs, 1), median(vs)
			diff := (hi - lo) / lo
			iqr := (quantile(vs, 0.75) - quantile(vs, 0.25)) / med
			fmt.Fprintf(out, "| %s | %s | %.4g | %.4g | %.4g | %.3f | %.3f |\n", d.Name, d.Unit, lo, med, hi, diff, iqr)
			worst[d.Name] = math.Max(worst[d.Name], diff)
			history[w.Name][d.Name] = med
		}
		for _, rs := range sets {
			attempted = append(attempted, float64(rs[wi].Attempted))
		}
		fmt.Fprintf(out, "\nattempted per set: min %.0f; failed: 0 in every set\n\n", quantile(attempted, 0))
	}

	fmt.Fprintf(out, "## Derived bounds\n\nbound = max(floor, 2 x largest diff over all workloads), floors %.2f timed and %.2f counts, capped at the contract's 0.25.\n\n", floorTimed, floorCount)
	fmt.Fprintf(out, "| metric | largest diff | derived bound | BENCHMARK.json | verdict |\n|---|---|---|---|---|\n")
	for _, d := range calibrated() {
		floor := floorTimed
		if isCount(d.Name) {
			floor = floorCount
		}
		bound := math.Min(0.25, math.Max(floor, 2*worst[d.Name]))
		verdict := "gated"
		switch {
		case d.Bound == 0 && worst[d.Name] > demoteAbove:
			verdict = "stays ungated: set-to-set difference above 0.10"
		case d.Bound == 0:
			verdict = "ungated; steady enough to gate"
		case d.Name == "setup_s" || d.Name == "rps":
			verdict = "gated (mandatory)"
			if d.Bound < bound {
				verdict = "gated (mandatory): WIDEN BENCHMARK.json"
			}
		case worst[d.Name] > demoteAbove:
			verdict = "DEMOTE: set-to-set difference above 0.10"
		case d.Bound < bound:
			verdict = "WIDEN BENCHMARK.json"
		}
		fmt.Fprintf(out, "| %s | %.3f | %.3f | %.2f | %s |\n", d.Name, worst[d.Name], bound, d.Bound, verdict)
	}

	fmt.Fprintf(out, "\n## history.jsonl record\n\n")
	return json.NewEncoder(out).Encode(map[string]any{
		"date": time.Now().UTC().Format("2006-01-02"), "kind": "calibration-medians", "sets": n,
		"nproc": runtime.NumCPU(), "go": runtime.Version(), "workloads": history,
	})
}

// cpuModel names the processor for the calibration record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
