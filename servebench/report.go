package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run (--trace 0) of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"mean_error_m", "m"},
	{"worst_error_m", "m"},
}

// perLayer are the metrics of single layers and of the load generator,
// reported by a traced run (--trace 1) of every workload.
var perLayer = []metricDef{
	{"p99_ms", "ms"},
	{"serve.wait_us", "us"},
	{"serve.avg_batch", "rows"},
	{"serve.batches", "count"},
	{"serve.queue_full_waits", "count"},
	{"serve.shadow_rows", "count"},
	{"serve.shadow_dropped", "count"},
	{"localizer.position_us", "us"},
	{"localizer.position_us_per_row", "us"},
	{"localizer.floor_us", "us"},
	{"node.localize_self_us", "us"},
	{"node.batch_self_us", "us"},
	{"node.feedback_us", "us"},
	{"cluster.hop_self_us", "us"},
	{"cluster.resolve_us", "us"},
	{"cluster.proxied", "count"},
	{"cluster.retries", "count"},
	{"cluster.shard_down", "count"},
	{"train.rounds", "count"},
	{"train.swaps", "count"},
	{"train.aborts", "count"},
	{"train.rollbacks", "count"},
	{"train.version_changes", "count"},
	{"core.weight_bytes", "bytes"},
	{"peak_heap_mb", "MB"},
	{"setup.collect_s", "s"},
	{"setup.fit_s", "s"},
	{"setup.craft_s", "s"},
	{"go.allocs_per_req", "count"},
	{"go.gc_cycles", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.samples", "count"},
	{"trace.overhead_pct", "%"},
	{"slo_qps", "1/s"},
	{"write_p50_ms", "ms"},
	{"finetune_s", "s"},
	{"failed_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the last line of the benchmark's stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured, before it is cut down to the
// metric set of the run's mode.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	summary           []string // human-readable lines printed before the result
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// newOutcome starts a run's outcome. A traced run starts every per-layer
// metric at 0, the reading of a layer its workload does not run.
func newOutcome(traced bool) *outcome {
	o := &outcome{values: map[string]float64{}}
	if traced {
		for _, d := range perLayer {
			o.values[d.name] = 0
		}
	}
	return o
}

// write prints the summary lines and then the result line holding exactly
// the metrics of defs. A metric the run did not produce is an error: every
// workload reports every metric of its mode. The result is correct only when
// nothing failed: a wrong answer, a non-2xx response, a transport error and a
// failed fine-tune round all make it incorrect, since each one also enters
// the latency sample.
func (o *outcome) write(w io.Writer, defs []metricDef) error {
	r := report{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("run produced no value for %s", strings.Join(missing, ", "))
	}
	if r.Attempted < 1 {
		return fmt.Errorf("run attempted no requests")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	for _, s := range o.summary {
		fmt.Fprintln(w, s)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
