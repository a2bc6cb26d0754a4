package main

import (
	"bufio"
	"context"
	"fmt"
	"strings"
	"time"

	"stethoscope"
	"stethoscope/internal/adaptive"
	"stethoscope/internal/algebra"
	"stethoscope/internal/compiler"
	"stethoscope/internal/engine"
	"stethoscope/internal/metrics"
	"stethoscope/internal/optimizer"
	"stethoscope/internal/plancache"
	"stethoscope/internal/planner"
	"stethoscope/internal/profiler"
	"stethoscope/internal/server"
	"stethoscope/internal/sharedwork"
	"stethoscope/internal/sql"
	"stethoscope/internal/storage"
	"stethoscope/internal/tracestore"
)

// execOut is what one statement execution hands back for checking.
type execOut struct {
	rows   int
	table  func() string    // renders header + rows as Result.WriteTable does
	events []profiler.Event // the run's trace (layer stack only)
}

// execer runs statements: the facade (untraced runs) or the traced
// composition of the layers behind it.
type execer interface {
	exec(ctx context.Context, query string, ot *opTrace) (execOut, error)
}

// facadeExec runs statements through DB.Exec.
type facadeExec struct {
	db   *stethoscope.DB
	opts []stethoscope.ExecOption
}

func (f *facadeExec) exec(ctx context.Context, query string, _ *opTrace) (execOut, error) {
	r, err := f.db.Exec(ctx, query, f.opts...)
	if err != nil {
		return execOut{}, err
	}
	return execOut{rows: r.RowCount(), table: func() string { return tableOf(r) }}, nil
}

// layerExec composes the layers DB.Exec composes — plan cache, parse,
// bind, auto-tune, lower, optimize, shared-work flight, history record,
// engine run — calling each layer's exported functions directly so that
// every call can be wrapped in a span. It mirrors the facade's Exec
// path (stethoscope.go) and the planner's compile flow
// (internal/planner) step for step; only the spans are added.
type layerExec struct {
	cat      *storage.Catalog
	eng      *engine.Engine
	cache    *plancache.Cache
	pipeline optimizer.Pipeline
	passSpec string
	flight   *sharedwork.Flight
	hist     *tracestore.Store // nil: no history
	reg      *metrics.Registry

	partitions int // request; adaptive.Auto allowed
	workers    int
	morsel     int // 0: static lowering
}

// newLayerExec builds the layer stack over a catalog with the facade's
// defaults: the default optimizer pipeline and a DefaultPlanCacheSize
// plan cache, all instrumented into one registry.
func newLayerExec(cat *storage.Catalog, reg *metrics.Registry) *layerExec {
	pl := optimizer.Default()
	x := &layerExec{
		cat:        cat,
		eng:        engine.New(cat),
		cache:      plancache.New(plancache.DefaultSize),
		pipeline:   pl,
		passSpec:   pl.Spec(),
		flight:     sharedwork.NewFlight(),
		reg:        reg,
		partitions: 1,
		workers:    1,
	}
	x.eng.SetMetrics(reg)
	x.cache.Instrument(reg)
	x.flight.Instrument(reg)
	return x
}

func (x *layerExec) exec(ctx context.Context, query string, ot *opTrace) (execOut, error) {
	comp, err := x.compile(query, ot)
	if err != nil {
		return execOut{}, err
	}
	ot.start("adaptive.tune")
	workers, autoTuned, reason := comp.ResolveExec(x.workers)
	morselRows, mauto, mreason := comp.ResolveMorsel(x.morsel)
	ot.end()
	autoTuned = autoTuned || mauto
	reason = adaptive.JoinReasons(reason, mreason)
	key := sharedwork.Key{SQL: query, Partitions: x.partitions, Morsel: x.morsel != 0,
		MorselRows: morselRows, Passes: x.passSpec}
	ot.start("sharedwork.do")
	out, err, _, _ := x.flight.Do(ctx, key, func() (*sharedwork.Outcome, error) {
		return x.run(ctx, query, comp, workers, morselRows, autoTuned, reason, ot)
	})
	ot.end()
	if err != nil {
		return execOut{}, err
	}
	return execOut{rows: out.Res.Rows(), events: out.Events,
		table: func() string { return renderTable(out.Res) }}, nil
}

// compile is planner.Planner.Compile with a span per layer call.
func (x *layerExec) compile(query string, ot *opTrace) (planner.Compiled, error) {
	key := plancache.Key{SQL: query, Partitions: x.partitions, Morsel: x.morsel != 0, Passes: x.passSpec}
	ot.start("plancache.get")
	e, ok := x.cache.Get(key)
	ot.end()
	if ok {
		return planner.Compiled{Plan: e.Plan, Opt: e.Opt, Aux: e.Aux, Partitions: e.Partitions,
			TuneReason: e.TuneReason, Rows: e.Rows, Cached: true}, nil
	}
	ot.start("sql.parse")
	stmt, err := sql.Parse(query)
	ot.end()
	if err != nil {
		return planner.Compiled{}, fmt.Errorf("parse: %w", err)
	}
	ot.start("algebra.bind")
	tree, err := algebra.Bind(stmt, x.cat)
	ot.end()
	if err != nil {
		return planner.Compiled{}, fmt.Errorf("bind: %w", err)
	}
	var rows int
	resolved, reason := x.partitions, ""
	if x.partitions == adaptive.Auto || x.morsel != 0 {
		ot.start("adaptive.tune")
		var shape string
		rows, shape = algebra.DriverRows(tree, x.cat)
		if x.partitions == adaptive.Auto {
			resolved, reason = adaptive.PartitionsFor(rows, adaptive.Procs(), shape)
		}
		ot.end()
	}
	ot.start("compiler.lower")
	plan, err := compiler.Compile(tree, stmt.Text, compiler.Options{Partitions: resolved, Morsel: x.morsel != 0})
	ot.end()
	if err != nil {
		return planner.Compiled{}, fmt.Errorf("compile: %w", err)
	}
	ot.start("optimizer.run")
	plan, stats, err := x.pipeline.Run(plan)
	ot.end()
	if err != nil {
		return planner.Compiled{}, fmt.Errorf("optimize: %w", err)
	}
	aux := &plancache.Aux{}
	ot.start("plancache.put")
	x.cache.Put(key, plancache.Entry{Plan: plan, Opt: stats, Aux: aux,
		Partitions: resolved, TuneReason: reason, Rows: rows})
	ot.end()
	return planner.Compiled{Plan: plan, Opt: stats, Aux: aux, Partitions: resolved,
		TuneReason: reason, Rows: rows}, nil
}

// run is the facade's execOutcome with a span per layer call.
func (x *layerExec) run(ctx context.Context, query string, comp planner.Compiled,
	workers, morselRows int, autoTuned bool, reason string, ot *opTrace) (*sharedwork.Outcome, error) {
	plan := comp.Plan
	sink := profiler.NewOwnedSliceSink(2 * len(plan.Instrs))
	sinks := []profiler.Sink{sink}
	var rec *tracestore.RunWriter
	var hb *profiler.Batcher
	if x.hist != nil {
		ot.start("dot.export")
		dotText := plancache.DotText(plan, comp.Aux)
		ot.end()
		ot.start("tracestore.begin")
		var err error
		rec, err = x.hist.Begin(tracestore.RunMeta{SQL: query, Dot: dotText,
			Partitions: comp.Partitions, Workers: workers, Instructions: len(plan.Instrs),
			AutoTuned: autoTuned, TuneReason: reason})
		ot.end()
		if err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
		hb = profiler.NewBatcher(rec, tracestore.DefaultAppendBatch, 0)
		hb.Instrument(x.reg)
		sinks = append(sinks, hb)
	}
	ot.start("engine.run")
	start := time.Now()
	res, err := x.eng.RunContext(ctx, plan, engine.Options{Workers: workers, MorselRows: morselRows,
		Profiler: profiler.New(sinks...), Label: query})
	elapsed := time.Since(start)
	ot.end()
	if rec != nil {
		ot.start("tracestore.finish")
		hb.Close()
		st := tracestore.RunStats{ElapsedUs: elapsed.Microseconds()}
		if err != nil {
			st.Err = err.Error()
		} else {
			st.Rows = res.Rows()
			st.CacheHit = comp.Cached
		}
		herr := rec.Finish(st)
		ot.end()
		if herr != nil && err == nil {
			return nil, fmt.Errorf("history: %w", herr)
		}
	}
	if err != nil {
		return nil, err
	}
	return &sharedwork.Outcome{Res: res, Events: sink.Take(), Elapsed: elapsed,
		Partitions: comp.Partitions, Workers: workers, MorselRows: morselRows,
		AutoTuned: autoTuned, TuneReason: reason, CacheHit: comp.Cached}, nil
}

// tableOf renders a facade result's table.
func tableOf(r *stethoscope.Result) string {
	var b strings.Builder
	r.WriteTable(&b)
	return b.String()
}

// renderTable renders an engine result exactly as Result.WriteTable.
func renderTable(res *engine.Result) string {
	var b strings.Builder
	w := bufio.NewWriter(&b)
	server.WriteResult(w, res)
	w.Flush()
	return b.String()
}
