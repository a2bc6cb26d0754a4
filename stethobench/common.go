package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"stethoscope"
	"stethoscope/internal/core"
	"stethoscope/internal/metrics"
	"stethoscope/internal/profiler"
	"stethoscope/internal/storage"
	"stethoscope/internal/trace"
)

// datasetSeed is the TPC-H generator seed of every workload's data. The
// workload seed varies the statement streams, never the data, so that
// references stay comparable across runs.
const datasetSeed = 42

// workloadNames lists the workloads in their documented order.
func workloadNames() []string {
	return []string{"tpch-warm", "compile-cold", "serve-mixed", "analyze-offline"}
}

func newWorkload(name string, seed uint64, dir string) (workload, error) {
	switch name {
	case "tpch-warm":
		return newTPCHWarm(seed, dir), nil
	case "compile-cold":
		return newCompileCold(seed, dir), nil
	case "serve-mixed":
		return newServeMixed(seed, dir), nil
	case "analyze-offline":
		return newAnalyzeOffline(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// nproc is the client count of the multi-client workloads: one closed
// loop per core, so no workload offers more concurrency than the machine
// has.
func nproc() int { return runtime.NumCPU() }

// tpchReferences executes every TPC-H statement at partitions 1 /
// workers 1 on a freshly generated in-memory dataset: the oracle the
// partitioned, morsel, persisted and served executions are held to.
func tpchReferences(sf float64) ([]*reference, error) {
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(sf), stethoscope.WithSeed(datasetSeed),
		stethoscope.WithPlanCacheSize(0))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var refs []*reference
	for _, q := range stethoscope.Queries() {
		ref, err := referenceOf(db, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.ID, err)
		}
		refs = append(refs, ref)
	}
	return refs, nil
}

// referenceOf runs one statement sequentially and unpartitioned.
func referenceOf(db *stethoscope.DB, query string) (*reference, error) {
	r, err := db.Exec(context.Background(), query, stethoscope.ExecPartitions(1), stethoscope.ExecWorkers(1))
	if err != nil {
		return nil, err
	}
	return newReference(tableOf(r), r.RowCount()), nil
}

// persistDataset generates the TPC-H dataset in memory and persists it
// into dir, the way tpchgen -persist prepares a server's data.
func persistDataset(sf float64, dir string) error {
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(sf), stethoscope.WithSeed(datasetSeed))
	if err != nil {
		return err
	}
	if err := db.Persist(dir); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// checkOut compares an execution's result with its reference. Results
// above inlineRows rows are checked by shape only here; their tables
// are rendered and compared after the timed interval (see retained).
func checkOut(out execOut, ref *reference) (deferred bool, err error) {
	if out.rows != ref.rows {
		return false, fmt.Errorf("%d rows, want %d", out.rows, ref.rows)
	}
	if ref.rows > inlineRows {
		return true, nil
	}
	return false, ref.checkText(out.table())
}

// inlineRows bounds the results checked inside the closed loop.
// Rendering a result of a few hundred thousand rows costs several times
// the query itself, so large results are retained (the last one per
// client and statement) and compared once the interval has ended.
const inlineRows = 10000

// retained holds large results awaiting their comparison.
type retained struct {
	out execOut
	ref *reference
}

// checkRetained compares the retained results and reports how many
// were wrong, with the first difference.
func checkRetained(rs map[[2]int]retained) (wrong int, err error) {
	for _, r := range rs {
		if cerr := r.ref.checkText(r.out.table()); cerr != nil {
			wrong++
			if err == nil {
				err = cerr
			}
		}
	}
	return wrong, err
}

// eachClient runs f for clients 0..n-1 concurrently and returns the
// first error.
func eachClient(n int, f func(c int) error) error {
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		go func(c int) { errs <- f(c) }(c)
	}
	var first error
	for c := 0; c < n; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fillHistory executes query until the history store has reached its
// size cap less one segment, so retention is live from the first timed
// operation on.
func fillHistory(db *stethoscope.DB, query string, capBytes, segBytes int64, opts ...stethoscope.ExecOption) error {
	deadline := time.Now().Add(60 * time.Second)
	for db.History().Stats().Bytes < capBytes-segBytes {
		if time.Now().After(deadline) {
			return fmt.Errorf("history did not reach %d bytes", capBytes-segBytes)
		}
		if _, err := db.Exec(context.Background(), query, opts...); err != nil {
			return err
		}
	}
	return nil
}

// delta is the change of registry counters over an interval.
type delta struct{ before, after metrics.Snapshot }

func (d delta) value(name string) float64 {
	return float64(d.after.Value(name) - d.before.Value(name))
}

// histMean is the mean of a histogram's observations over the interval.
func (d delta) histMean(name string) float64 {
	a, _ := d.after.Get(name)
	b, _ := d.before.Get(name)
	return ratio(float64(a.Sum-b.Sum), float64(a.Count-b.Count))
}

// share is num/(num+other) over the interval.
func (d delta) share(num, other string) float64 {
	n := d.value(num)
	return ratio(n, n+d.value(other))
}

// engineLayers derives the engine, morsel, plan-cache and shared-work
// metrics from registry deltas over ops operations.
func engineLayers(m map[string]float64, d delta, ops int) {
	n := float64(ops)
	m["plancache.hit_ratio"] = d.share("stetho_plancache_hits_total", "stetho_plancache_misses_total")
	m["plancache.evictions_per_op"] = ratio(d.value("stetho_plancache_evictions_total"), n)
	m["engine.steals_per_op"] = ratio(d.value("stetho_engine_steals_total"), n)
	m["engine.parks_per_op"] = ratio(d.value("stetho_engine_parks_total"), n)
	m["engine.instructions_per_op"] = ratio(d.value("stetho_engine_instructions_total"), n)
	m["morsel.morsels_per_op"] = ratio(d.value("stetho_engine_morsels_claimed_total"), n)
	m["engine.sharedscan_attach_ratio"] = d.share("stetho_engine_sharedscan_attached_total", "stetho_engine_sharedscan_led_total")
	m["sharedwork.attach_ratio"] = d.share("stetho_sharedwork_attached_total", "stetho_sharedwork_led_total")
}

// spanLayers turns span self times into per-operation microseconds.
// Spans named after a layer call report as <name>_us; the tracestore
// begin and finish records together make tracestore.append_us.
func spanLayers(m map[string]float64, spans []span, ops int) {
	alias := map[string]string{"tracestore.begin": "tracestore.append", "tracestore.finish": "tracestore.append"}
	for name, ns := range selfTimes(spans) {
		if a, ok := alias[name]; ok {
			name = a
		}
		key := name + "_us"
		if !isPerLayer(key) {
			continue
		}
		m[key] += ratio(float64(ns)/1e3, float64(ops))
	}
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// traceLog keeps the profiler traces of measured runs. Keeping one is
// an append; the analysis waits until the interval has ended, so the
// benchmark's own work never counts as the run's.
type traceLog struct {
	mu     sync.Mutex
	traces [][]profiler.Event
}

// keep records one run's trace; a nil log keeps nothing.
func (l *traceLog) keep(events []profiler.Event) {
	if l == nil || len(events) == 0 {
		return
	}
	l.mu.Lock()
	l.traces = append(l.traces, events)
	l.mu.Unlock()
}

// report writes what the kept traces say about the engine, per kept
// run: core.Utilize for the share of the machine's cores a run kept
// busy, core.ModuleBreakdown for busy time per MAL module.
func (l *traceLog) report(m map[string]float64) {
	var busy float64
	events := 0
	moduleUs := map[string]int64{}
	for _, evs := range l.traces {
		st := trace.FromEvents(evs)
		events += len(evs)
		busy += core.Utilize(st).Parallelism / float64(runtime.GOMAXPROCS(0))
		for _, mod := range core.ModuleBreakdown(st) {
			moduleUs[mod.Module] += mod.BusyUs
		}
	}
	runs := float64(len(l.traces))
	m["engine.busy_ratio"] = ratio(busy, runs)
	m["profiler.events_per_op"] = ratio(float64(events), runs)
	for _, mod := range []string{"algebra", "aggr", "group", "mat", "bat", "batcalc"} {
		m["kernels."+mod+"_us"] = ratio(float64(moduleUs[mod]), runs)
	}
}

// touchAll materializes every column of every table: the disk reads a
// persisted dataset's first queries pay.
func touchAll(cat *storage.Catalog) error {
	for _, name := range cat.TableNames() {
		schema, bare, _ := strings.Cut(name, ".")
		t, ok := cat.Table(schema, bare)
		if !ok {
			return fmt.Errorf("table %s vanished", name)
		}
		for _, c := range t.Columns {
			if _, err := t.ColumnData(c.Name); err != nil {
				return err
			}
		}
	}
	return nil
}
