// Command perfbench is the repository benchmark: it drives the real
// RF-Prism program from outside, through its public Go constructors
// and its HTTP surface, on seeded simulator inputs, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) as
// one JSON object on the last line of standard output.
//
//	perfbench --workload paper-grid|shelf --seed N --seconds S --trace 0|1
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// params are one run's arguments.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	log     func(format string, args ...any)
}

// outcome is what a workload run hands back: the metrics it measured,
// the attempted/failed operation counts, and every correctness
// problem it found.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// problem records a failed correctness gate.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(p params) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-grid": runPaperGrid,
	"shelf":      runShelf,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: paper-grid or shelf")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 emits per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	logf := func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
	env := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitID("."),
	}
	b, _ := json.Marshal(env)
	logf("env %s", b)

	out, err := run(params{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		log:     logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep := finish(out, *trace == 1)
	for _, p := range out.problems {
		logf("FAIL %s", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// finish selects the catalogue half the mode emits and checks that
// every metric is present, finite, and (end to end) non-zero.
func finish(out *outcome, traced bool) jsonReport {
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layer
	}
	rep := jsonReport{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		switch {
		case !ok:
			out.problem("metric %s was not measured", d.name)
			continue
		case math.IsNaN(v) || math.IsInf(v, 0):
			out.problem("metric %s is not finite", d.name)
			continue
		case !traced && v == 0:
			out.problem("end-to-end metric %s is 0", d.name)
		}
		rep.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		out.problem("no operation attempted")
		rep.Attempted = 1
	}
	if out.failed > 0 {
		out.problem("%d of %d operations failed", out.failed, out.attempted)
	}
	rep.Correct = len(out.problems) == 0
	return rep
}

// commitID names the source the run was built from: the git commit
// when the tree is a checkout with .git metadata, and otherwise a hash
// of the module's Go sources and build files.
func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return ref
		}
		return ref
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
