// Command benchmark is the repository's benchmark: four workloads over
// the full four-party system on loopback TCP, end-to-end metrics from an
// untraced run and a per-layer ledger from a traced one, every answer
// verified against the plaintext oracle. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// maxProcs caps GOMAXPROCS: the benchmark never uses more than four
// cores, so a large machine measures the same shape as a small one.
const maxProcs = 4

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and end with the result line (default: every workload)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 0, "length of the timed window (default: BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (with no -workload: both)")
		repeat   = flag.Int("repeat", 1, "run the full set this many times and report each metric's spread against its bound")
		reverse  = flag.Bool("reverse", false, "run the workloads in reverse order")
		compare  = flag.String("compare", "", "compare two results files: -compare old.json new.json")
		out      = flag.String("out", "out/results.json", "results file a full run writes")
	)
	flag.Parse()
	if n := runtime.NumCPU(); n < maxProcs {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}

	bench, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = bench.RunSeconds
	}

	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, bench, *compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload != "":
		if err := runOne(bench, *workload, *seed, *seconds, *trace == 1); err != nil {
			fatal(err)
		}
	default:
		ok, err := runAll(bench, *seed, *seconds, *trace == 1, *repeat, *reverse, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runBudget bounds one run far below the 180 s a run may take.
const runBudget = 150 * time.Second

// runOne runs a single workload in this process, prints its table, keeps
// its record under out/, and ends standard output with the result line.
func runOne(bench *benchSpec, name string, seed int64, seconds int, traced bool) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var rec *runRecord
	var err error
	if traced {
		rec, err = runTraced(ctx, bench, spec, seed, seconds)
	} else {
		rec, err = runTimed(ctx, bench, spec, seed, seconds)
	}
	if err != nil {
		return err
	}
	rec.printTable(os.Stdout)
	if err := writeJSON(recordPath(rec), rec); err != nil {
		return err
	}
	fmt.Println(rec.resultLine())
	return nil
}

// recordPath is where a single run leaves its full record.
func recordPath(r *runRecord) string {
	kind := "timed"
	if r.Trace {
		kind = "traced"
	}
	return fmt.Sprintf("out/run-%s-%s-seed%d.json", r.Workload, kind, r.Seed)
}
