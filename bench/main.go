// Command bench is the repository's end-to-end ledger: it hosts the
// offloaded stack in-process (the DPU is simulated in-process anyway), drives
// it over loopback TCP through dpurpc.NewOffloadedStack -> ListenAndServe ->
// xrpc.Dial / Client.Go, checks every response, and prints every metric by
// name with its unit. A separate traced run (-trace 1) times each layer from
// outside through its public functions and writes spans. It claims no gain;
// it is the ruler later issues use. See README.md.
//
//	bash bench/run.sh                          # all four workloads, untraced
//	bash bench/run.sh -workload ints_decode    # one workload
//	bash bench/run.sh -trace 1 -trace-out spans.json
//	bash bench/run.sh -calibrate 3             # CALIBRATION.md table
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"dpurpc"
	"dpurpc/internal/mt19937"
	"dpurpc/internal/workload"
)

// config is the schedule of one run. The flags derive it; the smoke test
// sets it directly to run in milliseconds.
type config struct {
	seed uint32
	// rounds x windows windows of windowDur are recorded per workload; each
	// round builds a fresh stack, warms it for warmDur, and ends with an
	// unloaded phase of unloadedDur.
	rounds, windows                 int
	windowDur, warmDur, unloadedDur time.Duration
	// setupCycles set-ups are timed after setupWarm discarded ones.
	setupCycles, setupWarm int
	// The traced run makes depth-1 calls with spans for traceDur and gives
	// each timed layer loop layerDur.
	traceDur, layerDur time.Duration
}

const (
	defaultSeconds = 24
	defaultRounds  = 3
)

// scheduleFor spreads seconds of measuring over the run. Untraced: every
// round measures its windows plus one window-length unloaded phase. Traced:
// one round gets half the time for the counters and proc.* rows; the traced
// pass and the layer loops take the rest.
func scheduleFor(seconds, rounds, windows int, windowDur time.Duration, traced bool) config {
	cfg := config{
		rounds: rounds, windows: windows,
		windowDur: windowDur, warmDur: windowDur, unloadedDur: windowDur,
		setupCycles: 80, setupWarm: 3,
		traceDur: 2 * time.Second, layerDur: 400 * time.Millisecond,
	}
	total := time.Duration(seconds) * time.Second
	if traced {
		cfg.rounds = 1
		total /= 2
	}
	if cfg.windows == 0 {
		cfg.windows = max(1, int(total/time.Duration(cfg.rounds)/windowDur)-1)
	}
	return cfg
}

// boolArg is a boolean flag that takes its value as the next argument
// ("-trace 1"), which flag's own bool flags do not.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams passed in: the machine output (one JSON line
// per workload, last) goes to stdout, the human tables to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", mt19937.DefaultSeed, "seed of the Mersenne Twister that generates every payload")
	list := fs.String("workload", "", "workloads to run, comma-separated (default: all four)")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of measuring per workload")
	rounds := fs.Int("rounds", defaultRounds, "fresh stacks per workload (untraced run)")
	windows := fs.Int("windows", 0, "recorded windows per round (default: derived from -seconds)")
	windowDur := fs.Duration("window-dur", time.Second, "length of one window")
	var traced boolArg
	fs.Var(&traced, "trace", "1 runs the traced per-layer pass instead of the gated run (takes a value: -trace 1)")
	traceOut := fs.String("trace-out", "", "write the traced run's spans here as Chrome trace-event JSON")
	calibrate := fs.Int("calibrate", 0, "run this many full sets back to back and print the calibration table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *rounds < 1 || *windows < 0 || *windowDur <= 0 {
		fmt.Fprintf(stderr, "bench: bad arguments (unexpected %q, or a non-positive schedule)\n", fs.Args())
		return 2
	}
	defs, err := selectWorkloads(*list)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cfg := scheduleFor(*seconds, *rounds, *windows, *windowDur, bool(traced))
	cfg.seed = uint32(*seed)

	fmt.Fprintf(stderr, "dpurpc bench: seed %d, %s, nproc %d, GOMAXPROCS %d\n",
		cfg.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stderr, "  load generator and stack share this process; traffic crosses the host loopback interface (127.0.0.1), never a real link\n")
	fmt.Fprintf(stderr, "  schedule: %d round(s) x %d window(s) x %v per workload, warm-up %v, unloaded phase %v\n",
		cfg.rounds, cfg.windows, cfg.windowDur, cfg.warmDur, cfg.unloadedDur)
	for _, w := range defs {
		fmt.Fprintf(stderr, "  workload %-13s %s, %d conn x %d in flight, %s, %d distinct payloads\n",
			w.Name, w.Method, w.Conns, w.Depth, w.optionsString(), w.Distinct)
	}

	if *calibrate > 0 {
		if err := runCalibration(defs, cfg, *calibrate, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	var results []*result
	var rec *recorder
	machine := endToEnd
	if traced {
		rec = newRecorder()
		machine = perLayer
		results, err = runTraced(defs, cfg, rec, stderr)
	} else {
		results, err = runSet(defs, cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: FAILED: %v\n", err)
		return 1
	}
	if rec != nil && *traceOut != "" {
		if err := writeSpans(rec, *traceOut); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d spans to %s\n", len(rec.spans), *traceOut)
	}
	code := 0
	for _, r := range results {
		if err := r.writeJSON(stdout, machine); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !r.correct() {
			fmt.Fprintf(stderr, "bench: FAILED: %s: %d of %d requests failed\n", r.Workload, r.Failed, r.Attempted)
			code = 1
		}
	}
	return code
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prepared is a workload with its inputs generated.
type prepared struct {
	def      workloadDef
	payloads []payload
	acc      accum
	res      *result
}

func prepare(defs []workloadDef, env *workload.Env, seed uint32) ([]*prepared, error) {
	var out []*prepared
	for _, w := range defs {
		payloads, err := genPayloads(w, env, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, &prepared{def: w, payloads: payloads, res: newResult(w.Name)})
	}
	return out, nil
}

// runSet is the untraced, gated run: set-up time for every workload first,
// then cfg.rounds rounds, each visiting the workloads in order. Interleaving
// the rounds keeps a neighbour's 10-20 s burst from landing on one workload
// alone when several are run together.
func runSet(defs []workloadDef, cfg config, log io.Writer) ([]*result, error) {
	schema, err := dpurpc.ParseSchema("bench.proto", workload.Schema)
	if err != nil {
		return nil, err
	}
	ws, err := prepare(defs, workload.NewEnv(), cfg.seed)
	if err != nil {
		return nil, err
	}
	for _, p := range ws {
		if err := measureSetup(p.def, &p.payloads[0], cfg, p.res); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", p.def.Name, err)
		}
	}
	for round := 1; round <= cfg.rounds; round++ {
		for _, p := range ws {
			if err := visit(schema, p.def, p.payloads, cfg, &p.acc); err != nil {
				return nil, fmt.Errorf("%s: round %d: %w", p.def.Name, round, err)
			}
		}
	}
	var results []*result
	for _, p := range ws {
		p.acc.finish(p.res)
		fmt.Fprintf(log, "\n%s (untraced)\n", p.def.Name)
		p.res.writeTable(log, "end to end", endToEnd)
		p.res.writeTable(log, "per layer (counters and proc.*, ungated)", perLayer)
		for _, n := range p.res.Notes {
			fmt.Fprintf(log, "    %s\n", n)
		}
		results = append(results, p.res)
	}
	return results, nil
}

// runTraced is the per-layer run, never mixed with the gated numbers. For
// each workload: one untraced round for the counters, the proc.* rows and
// the unloaded round trip; then depth-1 calls on a fresh stack, each with a
// root span and a replay of its payload through every layer; then the timed
// layer loops; then the budget table.
func runTraced(defs []workloadDef, cfg config, rec *recorder, log io.Writer) ([]*result, error) {
	schema, err := dpurpc.ParseSchema("bench.proto", workload.Schema)
	if err != nil {
		return nil, err
	}
	env := workload.NewEnv()
	ws, err := prepare(defs, env, cfg.seed)
	if err != nil {
		return nil, err
	}
	shared := map[string]float64{}
	if err := timeShared(cfg, env, shared); err != nil {
		return nil, err
	}
	var results []*result
	for _, p := range ws {
		if err := visit(schema, p.def, p.payloads, cfg, &p.acc); err != nil {
			return nil, fmt.Errorf("%s: %w", p.def.Name, err)
		}
		p.acc.finish(p.res)
		if err := traceWorkload(schema, env, p, cfg, rec); err != nil {
			return nil, fmt.Errorf("%s: traced: %w", p.def.Name, err)
		}
		for k, x := range shared {
			p.res.Values[k] = x
		}
		fmt.Fprintf(log, "\n%s (traced run)\n", p.def.Name)
		p.res.writeTable(log, "per layer", perLayer)
		p.res.writeTable(log, "cost model", modelOnly)
		for _, n := range p.res.Notes {
			fmt.Fprintf(log, "    %s\n", n)
		}
		writeBudget(log, p.res, rec)
		results = append(results, p.res)
	}
	return results, nil
}

// traceWorkload runs the traced pass and the layer loops of one workload.
func traceWorkload(schema *dpurpc.Schema, env *workload.Env, p *prepared, cfg config, rec *recorder) error {
	f, err := newReplay(p.def, env, p.payloads)
	if err != nil {
		return err
	}
	defer f.close()
	v := p.res.Values

	st, addr, err := startStack(schema, p.def)
	if err != nil {
		return err
	}
	rec.beginWorkload(p.def.Name)
	var replayErr error
	rtts, attempted, failed, err := runUnloaded(addr, p.def, p.payloads, cfg.traceDur,
		func(pl *payload, start, end time.Time) {
			if replayErr == nil {
				replayErr = f.traceRequest(rec, pl, start, end)
			}
		})
	p.res.Attempted += attempted
	p.res.Failed += failed
	if err := errors.Join(err, replayErr, closeStack(st)); err != nil {
		return err
	}
	v["trace.bench_overhead_us"] = median(rtts) - v["rtt_p50_us"]
	p.res.note("traced pass: %d depth-1 calls with spans, p50 %.1f us", len(rtts), median(rtts))

	if err := f.timeLayers(cfg, v); err != nil {
		return err
	}
	v["residual.wakeup_us"] = v["rtt_p50_us"] - v["xrpc.echo_ns"]/1e3 - v["offload.step_ns"]/1e3
	return modelPrediction(p.def, cfg, v)
}
