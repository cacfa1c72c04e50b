// Command perfbench is the repository's serving benchmark. It runs one
// named workload, generated from a seed, against an in-process server
// on a loopback listener (as cmd/loadgen does), checks every answer,
// and prints its metrics by name with units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a client sees; with
// -trace 1 the same workload runs traced and the metrics are per layer.
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload tiered --seed 3 --seconds 12 --trace 0
//
// README.md in this directory explains why each workload exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest or tiered")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "scratch directory for WAL files and the span dump")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1

	res, err := run(o, os.Stdout)
	if err != nil {
		fail(err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fail(err)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers; see the oracle lines above")
		os.Exit(1)
	}
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
