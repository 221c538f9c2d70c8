// Command bench is the repository's one benchmark harness: it drives
// whole fixed-seed, fixed-budget fault-exploration sessions through the
// public seams of afex, core, backend, store and rpcnode, prints every
// metric by name with its unit, and checks every session's output
// against an oracle. See README.md beside this file.
//
//	go run ./bench                         all five workloads, end to end
//	go run ./bench --trace 1               all five, per-layer (traced)
//	go run ./bench --workload model-seq    one workload
//	go run ./bench compare a.json b.json   hold b to a within the bounds
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} — the form the
// benchmark driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// minReps is the least number of timed repetitions of a run (of each
// kind, in a traced run).
const (
	minReps       = 3
	minTracedReps = 2
)

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
	// MachineSpeed and MachineCPUSpeed are the median calibration speeds
	// around the repetitions, by the wall clock and by the CPU clock;
	// time-valued metrics are converted from them to referenceSpeed.
	MachineSpeed    float64 `json:"machine_speed"`
	MachineCPUSpeed float64 `json:"machine_cpu_speed"`
	// Digest identifies a deterministic session's search (model-seq).
	Digest string   `json:"digest,omitempty"`
	Notes  []string `json:"notes,omitempty"`
	// Spans are the traced repetitions' span totals, last repetition.
	Spans map[string]spanTotals `json:"spans,omitempty"`
}

// resultSet is what --out writes and compare reads: where and on what
// the runs were made, and the runs.
type resultSet struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	SpinMops   float64     `json:"spin_mops_1s"`
	When       string      `json:"when"`
	Runs       []runResult `json:"runs"`
}

// runOptions says how to run one workload once.
type runOptions struct {
	seed      int64
	seconds   float64
	traced    bool
	setupReps int // 0 = the workload's own
	reps      int // least repetitions (of each kind); 0 = minReps, minTracedReps
	log       io.Writer
}

// runWorkload sets the workload up (several times, for the median),
// runs repetitions for the measuring time, and folds them into one
// result. A calibration run between any two measurements gives each the
// machine speed it was taken at.
func runWorkload(env *benchEnv, w *workload, o runOptions) (*runResult, error) {
	setupReps := o.setupReps
	if setupReps == 0 {
		setupReps = w.setupReps
		if o.traced {
			setupReps = 1 // a traced run reports no set-up time
		}
	}
	speed := newSpeedometer(calibrateFor / time.Duration(env.scale))
	var (
		fx      fixture
		setups  []float64
		setupOn []machine
	)
	for i := 0; i < setupReps; i++ {
		// One sample is the mean of a burst of set-ups, the previous
		// fixture closed off the clock before each.
		var took time.Duration
		for j := 0; j < w.setupBurst; j++ {
			if fx != nil {
				if err := fx.close(); err != nil {
					return nil, err
				}
			}
			t := time.Now()
			var err error
			if fx, err = w.setup(env, o.seed); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			took += time.Since(t)
		}
		setups = append(setups, took.Seconds()/float64(w.setupBurst))
		setupOn = append(setupOn, speed.lap())
	}
	defer fx.close()

	least := o.reps
	if least == 0 {
		least = minReps
		if o.traced {
			least = minTracedReps
		}
	}
	var plain, traced []*repResult
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	run := func(mode repMode) error {
		r, err := fx.rep(mode)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r.on = speed.lap()
		if mode == modeTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Fprintf(o.log, "  rep %-6s %8d scenarios  %8.3fs  %10.0f/s  machine speed %.2f (cpu %.2f)  %d failed\n",
			[...]string{"plain", "probe", "traced"}[mode], r.scenarios, r.use.wall.Seconds(), rate(r), r.on.wall, r.on.cpu, r.failed)
		return nil
	}
	// The first repetition carries the outside probes that cost something
	// (rpc-loopback's byte-counting proxy) and, where it does, stays out
	// of the timings.
	if err := run(modeProbe); err != nil {
		return nil, err
	}
	// enough: the least number of timed repetitions (of each kind) ran.
	enough := func() bool {
		if o.traced {
			return len(traced) >= least
		}
		n := 0
		for _, r := range plain {
			if !r.probeOnly {
				n++
			}
		}
		return n >= least
	}
	for !enough() || time.Since(start) < window {
		if err := run(modePlain); err != nil {
			return nil, err
		}
		// Untraced and traced repetitions alternate, so a drifting
		// machine slows both sides of the overhead ratio alike.
		if o.traced {
			if err := run(modeTraced); err != nil {
				return nil, err
			}
		}
	}

	res := &runResult{
		Workload: w.name, Traced: o.traced, Seed: o.seed, Seconds: o.seconds,
		Metrics: map[string]sample{},
	}
	var speeds, cpuSpeeds []float64
	for _, r := range append(append([]*repResult(nil), plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Notes = append(res.Notes, r.notes...)
		if r.digest != "" {
			res.Digest = r.digest
		}
		speeds, cpuSpeeds = append(speeds, r.on.wall), append(cpuSpeeds, r.on.cpu)
	}
	res.MachineSpeed, res.MachineCPUSpeed = median(speeds), median(cpuSpeeds)
	if o.traced {
		res.Spans = traced[len(traced)-1].spans
		layerMetrics(res, plain, traced)
	} else {
		endToEndMetrics(res, plain, setups, setupOn)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// rate is scenarios per second of a repetition's timed region.
func rate(r *repResult) float64 { return float64(r.scenarios) / r.use.wall.Seconds() }

// endToEndMetrics folds an untraced run: the end-to-end metrics, and
// beside them the figures the repetitions measured that no span is
// needed for (see metricDef.Bound) — printed, and kept in the result
// file, but no part of the driver's line.
func endToEndMetrics(res *runResult, reps []*repResult, setups []float64, setupOn []machine) {
	var rates, cpu, alloc, clusters []float64
	var on []machine
	for _, r := range reps {
		if r.probeOnly {
			continue
		}
		n := float64(r.scenarios)
		rates = append(rates, rate(r))
		cpu = append(cpu, float64(r.use.cpu)/float64(time.Microsecond)/n)
		alloc = append(alloc, float64(r.use.allocBytes)/n)
		clusters = append(clusters, float64(r.clusters))
		on = append(on, r.on)
	}
	values := map[string][]float64{
		"scenarios_per_s":          rates,
		"cpu_us_per_scenario":      cpu,
		"alloc_bytes_per_scenario": alloc,
		"unique_failure_clusters":  clusters,
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			res.Metrics[m.Name] = summarize(m, setups, setupOn)
			continue
		}
		res.Metrics[m.Name] = summarize(m, values[m.Name], on)
	}
	for _, m := range perLayer {
		if v, on := collect(reps, m.Name); m.Bound > 0 && len(v) > 0 {
			res.Metrics[m.Name] = summarize(m, v, on)
		}
	}
}

// collect gathers a per-layer figure from the repetitions that measured
// it, with the machine each was measured on.
func collect(reps []*repResult, name string) (v []float64, on []machine) {
	for _, r := range reps {
		if x, ok := r.layer[name]; ok {
			v = append(v, x)
			on = append(on, r.on)
		}
	}
	return v, on
}

// layerMetrics folds a traced run. A figure that needs no span
// (journal bytes, wire bytes, resume time, scan rate) comes from the
// untraced repetitions when they measured it.
func layerMetrics(res *runResult, plain, traced []*repResult) {
	for _, m := range perLayer {
		v, on := collect(plain, m.Name)
		if len(v) == 0 {
			v, on = collect(traced, m.Name)
		}
		if len(v) == 0 {
			v, on = []float64{0}, []machine{{wall: referenceSpeed, cpu: referenceCPUSpeed}} // a layer this workload does not exercise
		}
		res.Metrics[m.Name] = summarize(m, v, on)
	}
	perSecond := metricDef{Unit: "1/s"}
	var plainRates, tracedRates []float64
	for _, r := range plain {
		if !r.probeOnly {
			plainRates = append(plainRates, atReference(perSecond, rate(r), r.on))
		}
	}
	for _, r := range traced {
		tracedRates = append(tracedRates, atReference(perSecond, rate(r), r.on))
	}
	overhead := median(plainRates) / median(tracedRates)
	res.Metrics["trace.overhead_ratio"] = sample{Value: overhead, Unit: "ratio", Min: overhead, Max: overhead, N: 1}
	if a := res.Metrics["trace.attribution_ratio"].Value; !attributed(a) {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("trace.attribution_ratio %.3f outside [%.1f, %.1f]: the spans do not account for the workers' time", a, attributionLo, attributionHi))
	}
}

// catalogue is the metrics the driver reads from a run of this kind.
func (res *runResult) catalogue() []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// printResult writes the run as a table, every metric by name with its
// unit.
func printResult(w io.Writer, res *runResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  attempted %d  failed %d  correct %v  machine speed %.2f, cpu %.2f (times at %.1f)",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, res.Correct, res.MachineSpeed, res.MachineCPUSpeed, referenceSpeed)
	if res.Digest != "" {
		fmt.Fprintf(w, "  digest %s", res.Digest)
	}
	fmt.Fprintln(w)
	row := func(m metricDef) {
		s := res.Metrics[m.Name]
		fmt.Fprintf(w, "  %-38s %16.4f %-6s  [%.4f .. %.4f] n=%d", m.Name, s.Value, s.Unit, s.Min, s.Max, s.N)
		if s.Raw != 0 {
			fmt.Fprintf(w, "  raw %.4f", s.Raw)
		}
		fmt.Fprintln(w)
	}
	for _, m := range res.catalogue() {
		row(m)
	}
	if !res.Traced {
		for _, m := range perLayer { // what endToEndMetrics put beside them
			if _, ok := res.Metrics[m.Name]; ok {
				row(m)
			}
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

// driverLine renders the run in the benchmark driver's form.
func driverLine(res *runResult) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, m := range res.catalogue() {
		s := res.Metrics[m.Name]
		v := s.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: s.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic("bench: result encoding cannot fail: " + err.Error())
	}
	return string(raw)
}

// newResultSet stamps where the runs are made: commit (when the
// checkout is a git repository), toolchain, cores, and a one-second
// spin-loop calibration.
func newResultSet(root string) *resultSet {
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &resultSet{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SpinMops:   spinMops(time.Second),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

func writeResultSet(path string, rs *resultSet) error {
	raw, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run (default: all five)")
		seed    = flag.Int64("seed", 1, "workload generation seed")
		seconds = flag.Float64("seconds", 16, "how long one run measures, after set-up")
		trace   = flag.String("trace", "0", "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run; both")
		runs    = flag.Int("runs", 1, "repeat every run this many times (for repeatability sets)")
		out     = flag.String("out", "", "write the full results as JSON to this file (default, without --workload: bench/out/results.json)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bench [flags]\n       bench compare <a.json> <b.json>\nworkloads: %s\n", strings.Join(workloadNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	var kinds []bool
	switch *trace {
	case "0":
		kinds = []bool{false}
	case "1":
		kinds = []bool{true}
	case "both":
		kinds = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: --trace %q: want 0, 1 or both\n", *trace)
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	env, err := newEnv(1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out == "" && *name == "" {
		*out = filepath.Join(env.root, "bench", "out", "results.json")
	}
	code := benchMain(env, selected, kinds, *seed, *seconds, *runs, *out, *name != "")
	if err := env.close(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// benchMain runs the selected workloads and reports; it returns the
// process exit code: non-zero when a run could not be made or an oracle
// failed. With driver set (one named workload) the last line printed is
// the last run in the benchmark driver's form.
func benchMain(env *benchEnv, selected []workload, kinds []bool, seed int64, seconds float64, runs int, out string, driver bool) int {
	var rs *resultSet
	if out != "" {
		rs = newResultSet(env.root)
		fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  spin %.0f Mops/s\n", rs.Commit, rs.GoVersion, rs.NumCPU, rs.GOMAXPROCS, rs.SpinMops)
	}
	code := 0
	var last *runResult
	for i := 0; i < runs; i++ {
		for wi := range selected {
			for _, traced := range kinds {
				w := &selected[wi]
				fmt.Printf("%s (%s)\n", w.name, w.why)
				res, err := runWorkload(env, w, runOptions{seed: seed, seconds: seconds, traced: traced, log: os.Stdout})
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				printResult(os.Stdout, res)
				if !res.Correct {
					code = 1
				}
				if rs != nil {
					rs.Runs = append(rs.Runs, *res)
				}
				last = res
			}
		}
	}
	if rs != nil {
		if err := writeResultSet(out, rs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("results written to %s\n", out)
	}
	if driver {
		fmt.Println(driverLine(last))
	}
	return code
}
