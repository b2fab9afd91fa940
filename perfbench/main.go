// Command perfbench is the repository's benchmark. One invocation runs one
// workload, checks every output against its reference, and prints the
// metrics as a single JSON object on the last line of standard output:
// the end-to-end metrics by default, the per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload batch_refine --seed 1 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads, the metrics, and
// which layer should move which end-to-end number.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the command-line arguments every workload receives.
type params struct {
	seed    uint64
	seconds float64
}

// workload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
type workload struct {
	run    func(p params) (*result, error)
	traced func(p params) (*result, error)
	// spareProc gives the Go scheduler one processor more than the
	// machine has CPUs. The service workload's load generator shares the
	// process with the daemon; without a spare processor it waits for the
	// daemon's analysis goroutines to be preempted (up to 10-20 ms) and
	// falls behind its schedule. The daemon keeps one worker per CPU.
	spareProc bool
}

var workloads = map[string]workload{
	"batch_refine": {runBatch, traceBatch, false},
	"stream_dense": {runStream, traceStream, false},
	"service_mix":  {runService, traceService, true},
}

func main() {
	name := flag.String("workload", "", "batch_refine | stream_dense | service_mix")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds; fixes the op count")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload batch_refine|stream_dense|service_mix --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	if w.spareProc {
		runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	}
	printEnv()
	run := w.run
	if *traced == 1 {
		run = w.traced
	}
	res, err := run(params{seed: *seed, seconds: float64(*seconds)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Correct = res.Correct && res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// printEnv records the machine a result was measured on, so drift of the
// machine can be told apart from a regression of the program.
func printEnv() {
	var si syscall.Sysinfo_t
	load := [3]float64{}
	if syscall.Sysinfo(&si) == nil {
		for i := range load {
			load[i] = float64(si.Loads[i]) / 65536
		}
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s cpu=%q loadavg=%.2f,%.2f,%.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(),
		load[0], load[1], load[2])
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
