// Command perfbench is the repository's benchmark: one command that runs
// a named workload over the Barnes-Hut solver (internal/core) or the
// session service (internal/serve), checks the outputs, and prints every
// metric by name with its unit.
//
//	perfbench --workload native-plummer --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs once untraced and once with the span
// recorder on, and the result carries the per-layer metrics plus the
// tracing overhead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed output check
// makes the command exit 1. README.md in this directory lists the
// workloads, the metrics and the layer each metric belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"upcbh/internal/hostenv"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	work    string  // scratch directory inside the checkout
	tr      *tracer // nil: untraced
	scale   scale
}

// outcome is what a workload reports: operation counts, output checks,
// and metrics. Failed counts failed or refused operations; failed
// checks are added to it by the caller.
type outcome struct {
	attempted int64
	failed    int64
	checks    []check
	metrics   map[string]metric
	notes     []string // human-readable sample counts and details
	// headline is the metric the tracing overhead is judged on: run_s,
	// or requests_per_s for the service.
	headline string
}

// check is one output check.
type check struct {
	name string
	err  error
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func (o *outcome) check(name string, err error) { o.checks = append(o.checks, check{name, err}) }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(cfg config, out *outcome) error
}

var workloads = []workload{
	{"native-plummer", runNative},
	{"simulate-ladder", runLadder},
	{"serve-mixed", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if task := os.Getenv(childEnv); task != "" {
		if err := childMain(task, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name: native-plummer, simulate-ladder or serve-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
		work    = flag.String("workdir", ".bench_build", "scratch directory for stores and trace files")
		record  = flag.Bool("record-ladder-ref", false, "recompute ladder_ref.json for every reference seed and print it")
	)
	flag.Parse()
	if *record {
		if err := recordLadderRef(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, work: *work, scale: fullScale}
	res, out, err := runWorkload(w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printHuman(os.Stdout, w.name, cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload runs w untraced; with traced set it runs w twice, each
// pass for half the time, the second with the span recorder on, and
// reports the per-layer metrics of the traced pass and the tracing
// overhead as the ratio of the two passes' headline metric.
func runWorkload(w workload, cfg config, traced bool) (result, *outcome, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, nil, fmt.Errorf("create workdir: %w", err)
	}
	if traced {
		// The untraced and the traced pass share the measured time.
		cfg.seconds /= 2
	}
	out := newOutcome()
	if err := w.run(cfg, out); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		tcfg := cfg
		tcfg.tr = newTracer()
		tout := newOutcome()
		if err := w.run(tcfg, tout); err != nil {
			return result{}, nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		if err := tcfg.tr.write(path, w.name, cfg.seed); err != nil {
			return result{}, nil, err
		}
		tout.notef("spans written to %s", path)
		addLayerMetrics(tout, out, tcfg.tr)
		tout.attempted += out.attempted
		tout.failed += out.failed
		tout.checks = append(out.checks, tout.checks...)
		out = tout
	}
	keep := endToEnd
	if traced {
		keep = perLayer
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, c := range out.checks {
		res.Attempted++
		if c.err != nil {
			res.Failed++
			res.Correct = false
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, m := range keep {
		v, ok := out.metrics[m.name]
		if !ok {
			return result{}, nil, fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
		}
		if v.Unit != m.unit {
			return result{}, nil, fmt.Errorf("%s: metric %s has unit %q, want %q", w.name, m.name, v.Unit, m.unit)
		}
		res.Metrics[m.name] = v
	}
	// failed_frac is the one end-to-end figure that is normally 0; it is
	// printed with the others but carried in the result as
	// failed/attempted rather than as a metric.
	out.set("failed_frac", "ratio", float64(res.Failed)/float64(res.Attempted))
	return res, out, nil
}

// printHuman writes the env stamp, the checks, and every measured metric
// with its unit, ahead of the JSON result line.
func printHuman(f io.Writer, name string, cfg config, out *outcome) {
	stamp := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Seconds  float64     `json:"seconds"`
		Commit   string      `json:"commit"`
		Env      hostenv.Env `json:"env"`
		Time     string      `json:"time"`
	}{name, cfg.seed, cfg.seconds, gitCommit(), hostenv.Capture(), time.Now().UTC().Format(time.RFC3339)}
	b, _ := json.Marshal(stamp)
	fmt.Fprintf(f, "env %s\n", b)
	for _, c := range out.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(f, "check %-40s %s\n", c.name, status)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(f, "metric %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(f, "note %s\n", n)
	}
}

// gitCommit reads the commit of the git checkout the benchmark runs in
// (the working directory) without running git; "unknown" in a plain
// source tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if c, ok := packedRef(filepath.Join(".git", "packed-refs"), ref); ok {
		return c
	}
	return "unknown"
}

func packedRef(path, ref string) (string, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if c, r, ok := strings.Cut(line, " "); ok && r == ref {
			return c, true
		}
	}
	return "", false
}

// errCheck builds a check failure.
func errCheck(format string, args ...any) error { return fmt.Errorf(format, args...) }

var errNoSamples = errors.New("no samples")
