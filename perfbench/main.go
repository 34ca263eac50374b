// Command perfbench is geosel's end-to-end benchmark. It serves the
// real server.Handler on a loopback port, replays seeded client traffic
// against it and reports what the clients saw; with -trace 1 it instead
// replays the same requests through each layer's public functions and
// reports per-layer metrics.
//
//	perfbench -workload browse|explore|churn -seed N -seconds S -trace 0|1
//
// Standard output carries a header line (environment, commit, seed,
// workload parameters), a report line (per-operation latencies with
// sample counts and ranks) and, last, the result object. The exit code
// is non-zero when any output check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: browse, explore or churn")
		seed    = flag.Int64("seed", 1, "input seed: dataset, scripts and updates")
		seconds = flag.Int("seconds", 10, "measured phase length")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
		root    = flag.String("root", ".", "repository root, for the run header's commit and source digest")
	)
	flag.Parse()
	code, err := run(os.Stdout, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(stdout *os.File, name string, seed int64, d time.Duration, traced bool, root string) (int, error) {
	w, err := findWorkload(name)
	if err != nil {
		return 2, err
	}
	if d <= 0 {
		return 2, fmt.Errorf("seconds must be positive")
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"header": header(w, seed, d, traced, root)}); err != nil {
		return 2, err
	}
	pl, err := makePlan(w, seed)
	if err != nil {
		return 2, err
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	m, err := measure(w, pl, seed, d, reps)
	if err != nil {
		return 2, err
	}
	rep := m.report(pl)
	out := output{
		Attempted: m.phase.rec.attempted,
		Failed:    m.phase.rec.failed,
		Metrics:   m.endToEnd(),
	}
	problems := append(m.problems(), m.phase.rec.errs...)
	if traced {
		t, err := traceRun(w, pl, seed)
		if err != nil {
			return 2, err
		}
		out.Metrics = perLayer(m, t)
		out.Attempted += t.attempted
		out.Failed += t.failed
		problems = append(problems, t.problems...)
		rep["trace"] = t.report()
	}
	out.Correct = out.Failed == 0 && len(problems) == 0
	rep["problems"] = problems
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		return 2, err
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := enc.Encode(out); err != nil {
		return 2, err
	}
	if !out.Correct {
		return 1, nil
	}
	return 0, nil
}

// header records what a run's numbers depend on.
func header(w *workload, seed int64, d time.Duration, traced bool, root string) map[string]any {
	return map[string]any{
		"workload":      w.name,
		"why":           w.why,
		"seed":          seed,
		"seconds":       d.Seconds(),
		"trace":         traced,
		"params":        w.p,
		"tile_cache":    w.tileCache,
		"live_store":    w.live,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(root),
		"source_sha256": sourceDigest(root),
	}
}

// gitCommit names the checked-out commit, or "unknown" when root is not
// a git work tree.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the library's Go sources and go.mod, so runs from
// checkouts without git history still say which code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if de.IsDir() && p != root && strings.HasPrefix(de.Name(), ".") {
			return filepath.SkipDir
		}
		if !de.IsDir() && (strings.HasSuffix(p, ".go") || de.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
