// Command stethobench is the repository's benchmark: a single-process,
// seeded, closed-loop load generator over the public stethoscope facade
// (Open/OpenPath, DB.Exec, DB.Serve + Dial, Attach, OpenOffline). It
// checks every output against an independent reference and prints each
// metric by name with its unit; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	stethobench --workload tpch-warm --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends the first
// half of the interval untraced and the second half driving the layers
// behind the facade directly, with a span around every layer call, and
// reports the per-layer metrics plus the tracing overhead. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run builds its workload's state from
// scratch; setup_s is the median, and the last build is measured.
const setupRuns = 3

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported with
// tracing off on every workload.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reads 0. _us values are per-operation self times.
var perLayer = []metricDef{
	{"sql.parse_us", "us"},
	{"algebra.bind_us", "us"},
	{"adaptive.tune_us", "us"},
	{"compiler.lower_us", "us"},
	{"optimizer.run_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions_per_op", "count/op"},
	{"dot.export_us", "us"},
	{"tracestore.append_us", "us"},
	{"tracestore.bytes_per_run", "bytes"},
	{"tracestore.compactions", "count"},
	{"batstore.first_touch_ms", "ms"},
	{"batstore.bytes_read", "bytes"},
	{"engine.run_us", "us"},
	{"engine.busy_ratio", "ratio"},
	{"engine.steals_per_op", "count/op"},
	{"engine.parks_per_op", "count/op"},
	{"engine.instructions_per_op", "count/op"},
	{"kernels.algebra_us", "us"},
	{"kernels.aggr_us", "us"},
	{"kernels.group_us", "us"},
	{"kernels.mat_us", "us"},
	{"kernels.bat_us", "us"},
	{"kernels.batcalc_us", "us"},
	{"profiler.events_per_op", "count/op"},
	{"morsel.morsels_per_op", "count/op"},
	{"engine.sharedscan_attach_ratio", "ratio"},
	{"sharedwork.attach_ratio", "ratio"},
	{"server.roundtrip_us", "us"},
	{"server.exec_us", "us"},
	{"server.bytes_per_op", "bytes/op"},
	{"netproto.events_delivered_ratio", "ratio"},
	{"netproto.delivery_lag_ms", "ms"},
	{"dot.parse_us", "us"},
	{"trace.load_us", "us"},
	{"trace.map_us", "us"},
	{"layout.compute_us", "us"},
	{"svg.render_us", "us"},
	{"svg.parse_us", "us"},
	{"zvtm.build_us", "us"},
	{"core.color_us", "us"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// workload is one benchmark scenario.
type workload interface {
	// context describes the run's fixed inputs for the output header.
	context() runContext
	// prepare builds what the checks need (references), once and
	// outside the set-up timing.
	prepare() error
	// setup builds the state a run measures, from scratch. With
	// traced set it builds the traced variant instead.
	setup(traced bool) error
	// clients is the number of closed-loop clients.
	clients() int
	// op runs one operation of client c and returns its latency: the
	// time the user waits, excluding the benchmark's own checking.
	op(c int, ot *opTrace) (time.Duration, error)
	// check verifies the outputs retained during the last interval
	// and reports how many were wrong.
	check() (wrong int, err error)
	// layers reports the per-layer metrics of the traced interval
	// that just ended (ops successful operations, spans of the run).
	layers(ops int, spans []span) map[string]float64
	// close releases the state setup built.
	close() error
}

// runContext is what every number of a run depends on.
type runContext struct {
	sf          float64
	datasetSeed uint64
	clients     int
}

// measurement is one closed-loop interval.
type measurement struct {
	lat       []time.Duration
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	peakRSS   int64         // bytes
	cpu       time.Duration // process CPU time over the interval
	gcs       uint64        // GC cycles over the interval
}

func (m measurement) ok() int { return m.attempted - m.failed }

// String summarizes the interval. The process CPU time and GC cycles
// show whether a slower run spent more CPU per operation or waited.
func (m measurement) String() string {
	return fmt.Sprintf("%d operations (%d failed) in %.3f s; process cpu %.3f s, %d GC cycles",
		m.attempted, m.failed, m.elapsed.Seconds(), m.cpu.Seconds(), m.gcs)
}

// measure runs every client closed-loop until d has passed: a client
// sends its next operation only when the previous one completed.
func measure(w workload, d time.Duration, tr *tracer) measurement {
	rss := startRSSSampler()
	type result struct {
		lat      []time.Duration
		n, fails int
		err      error
	}
	results := make(chan result, w.clients())
	cpu0, gc0 := processCPU(), gcCycles()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < w.clients(); c++ {
		go func(c int) {
			var r result
			for time.Now().Before(deadline) {
				ot := tr.begin()
				lat, err := w.op(c, ot)
				ot.finish()
				r.n++
				if err != nil {
					r.fails++
					if r.err == nil {
						r.err = fmt.Errorf("client %d: %w", c, err)
					}
					continue
				}
				r.lat = append(r.lat, lat)
			}
			results <- r
		}(c)
	}
	var m measurement
	for c := 0; c < w.clients(); c++ {
		r := <-results
		m.lat = append(m.lat, r.lat...)
		m.attempted += r.n
		m.failed += r.fails
		if m.firstErr == nil {
			m.firstErr = r.err
		}
	}
	m.elapsed = time.Since(start)
	m.cpu, m.gcs = processCPU()-cpu0, gcCycles()-gc0
	m.peakRSS = rss.stop()
	return m
}

// report is the run's final line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	workdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("stethobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for datasets, history stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "stethobench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "stethobench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "stethobench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(o.workload, o.seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "stethobench:", err)
		return 2
	}
	rep, err := execute(w, o, stdout)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "stethobench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "stethobench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute sets the workload up, measures it, and builds the report.
// Errors are benchmark failures (set-up could not complete); failed
// operations and wrong outputs are reported, not returned.
func execute(w workload, o options, out io.Writer) (report, error) {
	rc := w.context()
	mode := "end-to-end"
	if o.trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(out, "# stethobench workload=%s mode=%s seed=%d seconds=%d\n", o.workload, mode, o.seed, o.seconds)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d go=%s sf=%g dataset_seed=%d clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rc.sf, rc.datasetSeed, rc.clients)

	if err := w.prepare(); err != nil {
		return report{}, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return report{}, err
			}
		}
		start := time.Now()
		if err := w.setup(false); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	debug.FreeOSMemory()

	d := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		d /= 2
	}
	m := measure(w, d, nil)
	wrong, checkErr := w.check()
	m.failed += wrong
	rep := report{Metrics: map[string]metricValue{}}
	add := func(name string, v float64) {
		rep.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	lat := sortedMillis(m.lat)
	fmt.Fprintf(out, "# untraced: %s\n", m)
	if o.trace == 0 {
		add("p50_ms", percentile(lat, 50))
		add("p90_ms", percentile(lat, 90))
		add("ops_per_s", float64(m.ok())/m.elapsed.Seconds())
		add("setup_s", median(setups))
		add("peak_rss_mb", float64(m.peakRSS)/(1<<20))
		fmt.Fprintf(out, "# latency ms: p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f p95 %.2f max %.2f\n",
			percentile(lat, 10), percentile(lat, 25), percentile(lat, 50), percentile(lat, 75),
			percentile(lat, 90), percentile(lat, 95), percentile(lat, 100))
		if p99, ok := tailPercentile(lat, 99); ok {
			fmt.Fprintf(out, "p99_ms %.4f ms (%d samples)\n", p99, len(lat))
		} else {
			fmt.Fprintf(out, "p99_ms not reported: %d samples leave fewer than %d beyond it\n", len(lat), minTail)
		}
		rep.Attempted, rep.Failed = m.attempted, m.failed
	} else {
		untracedP50 := percentile(lat, 50)
		if err := w.close(); err != nil {
			return report{}, err
		}
		if err := w.setup(true); err != nil {
			return report{}, fmt.Errorf("traced setup: %w", err)
		}
		tr := newTracer()
		tm := measure(w, d, tr)
		wrong, err := w.check()
		tm.failed += wrong
		if checkErr == nil {
			checkErr = err
		}
		fmt.Fprintf(out, "# traced: %s\n", tm)
		spans := tr.snapshot()
		for name, v := range w.layers(tm.ok(), spans) {
			add(name, v)
		}
		for _, def := range perLayer {
			if _, ok := rep.Metrics[def.name]; !ok {
				add(def.name, 0)
			}
		}
		add("bench.trace_overhead_ratio", ratio(percentile(sortedMillis(tm.lat), 50), untracedP50))
		path := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return report{}, err
		}
		if err := writeSpans(path, spans); err != nil {
			return report{}, err
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(spans), path)
		rep.Attempted, rep.Failed = m.attempted+tm.attempted, m.failed+tm.failed
		if m.firstErr == nil {
			m.firstErr = tm.firstErr
		}
	}
	if m.firstErr != nil {
		fmt.Fprintf(out, "# first failure: %v\n", m.firstErr)
	}
	if checkErr != nil {
		fmt.Fprintf(out, "# output check failed: %v\n", checkErr)
	}
	rep.Correct = rep.Failed == 0 && checkErr == nil
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if rep.Attempted == 0 {
		return report{}, errors.New("no operation completed")
	}
	return rep, nil
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("unknown metric " + name)
}
