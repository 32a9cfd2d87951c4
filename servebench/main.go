// Command servebench is the repository's serving benchmark. It hosts CALLOC
// nodes (and, for fleet-update, a router in front of two of them) on
// loopback listeners in its own process, drives them over HTTP with a
// seeded load, checks every answer, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1) as one
// JSON object on the last line of stdout.
//
// Usage (from the repository root; run.sh builds it first):
//
//	bash servebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//
// Workloads: interactive, bulk, fleet-update. The exit code is 0 on a
// recorded run, 1 on an error and 3 when the run is invalid because the load
// generator fell behind; neither of the latter prints a result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// options is one run's configuration.
type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	trainEpochs int
	sloMs       float64
	setups      int // set-ups per run; setup_s is their median
}

func (o options) budget() time.Duration { return time.Duration(o.seconds) * time.Second }

var workloads = map[string]func(options) (*outcome, error){
	"interactive":  runInteractive,
	"bulk":         runBulk,
	"fleet-update": runFleet,
}

func parseOptions(args []string) (options, error) {
	o := options{setups: 3}
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the datasets, query order, FGSM perturbations and arrival schedule")
	fs.IntVar(&o.seconds, "seconds", 25, "measurement budget of the run in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.IntVar(&o.trainEpochs, "train-epochs", 1, "epochs per lesson when the nodes quick-train CALLOC")
	fs.Float64Var(&o.sloMs, "slo-ms", 25, "p99 limit of the slo_qps ladder in milliseconds")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	switch {
	case workloads[o.workload] == nil:
		return o, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be positive")
	case o.trainEpochs < 1 || o.sloMs <= 0:
		return o, fmt.Errorf("--train-epochs and --slo-ms must be positive")
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	out, err := workloads[o.workload](o)
	if err == nil {
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		err = out.write(os.Stdout, defs)
	}
	switch {
	case errors.Is(err, errInvalid):
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(3)
	case err != nil:
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}
