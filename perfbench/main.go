// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time against the engine, the session facade and the HTTP
// server, checks every sampled output against a computation of its own,
// and prints the metrics as one JSON line:
//
//	go run . -workload tick-battle -seed 1 -seconds 25 -trace 0
//
// With -trace 1 the run also replays each layer's public calls on
// sampled frames and prints the per-layer metrics instead. See README.md
// for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCount counts one kind of operation.
type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// opKinds are the operation kinds every record reports, in print order.
var opKinds = []string{"ticks", "queries", "commands", "checkpoints", "pushes"}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// small shrinks every workload to self-test size, and plant corrupts
	// one checked answer of the named kind to show the checkers reject
	// it; only the self-test sets them.
	small bool
	plant string
}

// run collects everything one invocation measures and checks.
type run struct {
	cfg      config
	ops      map[string]*opCount
	e2e      map[string]metric
	layer    map[string]metric
	failures []string
	tr       *tracer
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, ops: map[string]*opCount{}, e2e: map[string]metric{}, layer: map[string]metric{}}
	for _, k := range opKinds {
		r.ops[k] = &opCount{}
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// attempt counts one operation of kind; a non-nil err counts it failed.
func (r *run) attempt(kind string, err error) {
	r.ops[kind].Attempted++
	if err != nil {
		r.fail(kind, err)
	}
}

// fail counts a failure against an operation already attempted.
func (r *run) fail(kind string, err error) {
	r.ops[kind].Failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", kind, err))
	}
}

// setE2E and setLayer record a metric in the unit its table gives.
func (r *run) setE2E(name string, v float64)   { r.e2e[name] = metric{v, e2eUnits[name]} }
func (r *run) setLayer(name string, v float64) { r.layer[name] = metric{v, layerUnits[name]} }

// planted reports whether this run plants a wrong answer of kind.
func (r *run) planted(kind string) bool { return r.cfg.plant == kind }

var workloads = map[string]func(*run) error{
	"tick-battle":    runBattle,
	"session-sentry": runSentry,
	"serve-frames":   runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "tick-battle, session-sentry or serve-frames")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the run record and trace spans (empty = none)")
	flag.Parse()
	cfg.trace = trace == 1
	os.Exit(mainErr(cfg))
}

func mainErr(cfg config) int {
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	r := newRun(cfg)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	out, code := r.finish()
	if err := r.writeRecord(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *run) finish() (output, int) {
	out := output{Correct: true, Metrics: r.e2e}
	if r.cfg.trace {
		out.Metrics = r.layer
	}
	for _, k := range opKinds {
		out.Attempted += r.ops[k].Attempted
		out.Failed += r.ops[k].Failed
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	if out.Failed > 0 {
		out.Correct = false
		return out, 1
	}
	return out, 0
}

// writeRecord stores the run's metadata, operation counts and metrics
// (both sets) as JSON under the output directory, and the trace spans
// beside it on a traced run.
func (r *run) writeRecord(out output) error {
	if r.cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	rec := map[string]any{
		"workload":   r.cfg.workload,
		"seed":       r.cfg.seed,
		"seconds":    r.cfg.seconds,
		"trace":      r.cfg.trace,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"time":       time.Now().UTC().Format(time.RFC3339),
		"ops":        r.ops,
		"correct":    out.Correct,
		"attempted":  out.Attempted,
		"failed":     out.Failed,
		"end_to_end": r.e2e,
		"per_layer":  r.layer,
		"failures":   r.failures,
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d-%d", r.cfg.workload, r.cfg.seed, btoi(r.cfg.trace), time.Now().UnixNano())
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.WriteFile(filepath.Join(r.cfg.outDir, stem+".json"), data, 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(r.cfg.outDir, stem+".spans.jsonl")); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys returns m's keys in order (for deterministic iteration).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
