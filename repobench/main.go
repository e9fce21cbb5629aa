// Command repobench is the repository benchmark: four workloads that drive
// full-batch DRPA training, sharded mini-batch training and the exact
// serving fleet through their public APIs, and print one JSON result line.
//
//	go run . --workload serve-read --seed 1 --seconds 20 --trace 0
//
// (from this directory; run.sh builds and runs it from the repository
// root).
// With --trace 0 the run measures the end-to-end metrics with the program
// as users run it. With --trace 1 it runs the same workload, then replays
// its work layer by layer from this package — timing calls into each
// layer's public functions — and prints the per-layer metrics instead.
// Every run checks the program's outputs; a wrong answer is a failed
// operation and makes the run exit non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"distgnn/internal/parallel"
)

// kernelWorkers caps the process-wide kernel pool: the benchmark is sized
// for a 2-core box, with at most 2 kernel workers and 2 client connections.
const kernelWorkers = 2

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's arguments and collects its output.
type runCtx struct {
	seed    int64
	budget  time.Duration
	trace   bool
	cfg     workloadConfig
	res     result
	started time.Time
}

// set records a metric.
func (rc *runCtx) set(name string, v float64, unit string) {
	rc.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// count adds attempted operations and failures.
func (rc *runCtx) count(attempted, failed int64) {
	rc.res.Attempted += attempted
	rc.res.Failed += failed
}

// remaining is the time left of the measurement budget.
func (rc *runCtx) remaining() time.Duration { return rc.budget - time.Since(rc.started) }

// logf prints a progress line to standard error.
func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repobench: "+format+"\n", args...)
}

// workloads maps each workload name to its runner. A runner fills the
// end-to-end metrics, and with rc.trace also the per-layer metrics.
var workloads = map[string]func(rc *runCtx) error{
	"train-fullbatch": runTrainFullbatch,
	"train-sharded":   runTrainSharded,
	"serve-read":      runServeRead,
	"serve-mixed":     runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "repobench: unknown workload %q (known: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "repobench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	cfg, err := loadConfig(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	runtime.GOMAXPROCS(kernelWorkers)
	parallel.Configure(parallel.Config{Workers: kernelWorkers})

	rc := &runCtx{
		seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		cfg: cfg, res: result{Correct: true, Metrics: map[string]metric{}},
	}
	if err := fn(rc); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", *name+":", err)
		var we *wrongAnswer
		if errors.As(err, &we) {
			// A wrong answer is still a result: print it so the failure is
			// visible, then exit non-zero.
			rc.res.Correct = false
			printResult(rc.res)
		}
		return 1
	}
	if err := selectMetrics(rc); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	if rc.res.Failed > 0 {
		rc.res.Correct = false
	}
	if rc.res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "repobench: no operation was attempted")
		return 1
	}
	printResult(rc.res)
	if !rc.res.Correct {
		return 1
	}
	return 0
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench: encoding result:", err)
		return
	}
	fmt.Println(string(b))
}

// wrongAnswer is an output that failed a correctness check.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}
