// Package runner is the one statement path every front end executes
// through. The facade (DB.Exec, Stream, Explain, Debug) and the server
// (QUERY, EXPLAIN, DOT) are thin adapters over it, so a statement runs
// as one MAL plan under one profiler with one history record and one
// set of serving counters, whichever front end sent it — the paper's
// single trace stream (§3, §4.2).
//
// The path has three steps:
//
//   - Prepare: normalize settings → planner.Compile → resolve workers
//     and morsel size → the shared-work key.
//   - Run: history Begin → profiler → engine.RunContext → one clock →
//     history Finish → a *sharedwork.Outcome. Callers may tee extra
//     sinks (the server's per-session UDP stream).
//   - Do: result-cache get → single-flight → canceled-leader solo retry
//     → result-cache put.
//
// The runner owns the serving counters (stetho_db_inflight, _execs,
// _events, the event rate and the query latency histogram): Run counts
// every execution it performs, Do counts the consumers it serves
// without running a plan.
package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"stethoscope/internal/adaptive"
	"stethoscope/internal/engine"
	"stethoscope/internal/metrics"
	"stethoscope/internal/plancache"
	"stethoscope/internal/planner"
	"stethoscope/internal/profiler"
	"stethoscope/internal/sharedwork"
	"stethoscope/internal/storage"
	"stethoscope/internal/tracestore"
)

// Settings are one statement's execution settings. Partitions and
// Workers are >= 1 or adaptive.Auto. Morsel is 0 for the static
// mitosis lowering, otherwise the morsel size (>= 1 or adaptive.Auto).
type Settings struct {
	Partitions int
	Workers    int
	Morsel     int
}

// Normalize passes every setting in use through adaptive.Normalize.
func (s Settings) Normalize() Settings {
	s.Partitions = adaptive.Normalize(s.Partitions)
	s.Workers = adaptive.Normalize(s.Workers)
	if s.Morsel != 0 {
		s.Morsel = adaptive.Normalize(s.Morsel)
	}
	return s
}

// Prepared is a compiled statement with its settings resolved: what Run
// executes and the key Do shares it under.
type Prepared struct {
	SQL        string
	Comp       planner.Compiled
	Workers    int // resolved worker count
	MorselRows int // resolved morsel size; 0 under the static lowering
	AutoTuned  bool
	TuneReason string
	Key        sharedwork.Key
}

// Runner binds the shared serving state every front end executes
// against.
type Runner struct {
	Engine  *engine.Engine
	Planner planner.Planner
	Shared  *sharedwork.Shared
	History *tracestore.Store // nil: executions are not recorded
	Reg     *metrics.Registry

	// Serving counters. Rate and Latency may be set to nil to detach
	// query-level instrumentation (metric cells are nil-safe).
	Inflight *metrics.Gauge     // stetho_db_inflight: executions running now
	Execs    *metrics.Counter   // stetho_db_execs: completed statements
	Events   *metrics.Counter   // stetho_db_events: profiler events produced
	Rate     *metrics.Rate      // recent event throughput
	Latency  *metrics.Histogram // stetho_query_latency_us
}

// New wires a runner over its components and instruments all of them
// into reg: the engine scheduler, the plan cache, the shared-work
// flight and result cache, and the history store.
func New(eng *engine.Engine, pl planner.Planner, shared *sharedwork.Shared, hist *tracestore.Store, reg *metrics.Registry) *Runner {
	eng.SetMetrics(reg)
	if pl.Cache != nil {
		pl.Cache.Instrument(reg)
	}
	shared.Instrument(reg)
	reg.GaugeFunc("stetho_sharedwork_inflight", func() int64 { return int64(shared.Flight.InFlight()) })
	if hist != nil {
		hist.Instrument(reg)
	}
	return &Runner{
		Engine:   eng,
		Planner:  pl,
		Shared:   shared,
		History:  hist,
		Reg:      reg,
		Inflight: reg.Gauge("stetho_db_inflight"),
		Execs:    reg.Counter("stetho_db_execs"),
		Events:   reg.Counter("stetho_db_events"),
		Rate:     metrics.NewRate(0),
		Latency:  reg.Histogram("stetho_query_latency_us", nil),
	}
}

// Prepare compiles query under s through the shared planner and
// resolves the adaptive settings. Settings are normalized first, so
// out-of-range values never reach a cache key or the history record.
func (r *Runner) Prepare(query string, s Settings) (*Prepared, error) {
	s = s.Normalize()
	comp, err := r.Planner.Compile(query, s.Partitions, s.Morsel != 0)
	if err != nil {
		return nil, err
	}
	workers, autoTuned, reason := comp.ResolveExec(s.Workers)
	morselRows, mauto, mreason := comp.ResolveMorsel(s.Morsel)
	return &Prepared{
		SQL:        query,
		Comp:       comp,
		Workers:    workers,
		MorselRows: morselRows,
		AutoTuned:  autoTuned || mauto,
		TuneReason: adaptive.JoinReasons(reason, mreason),
		Key: sharedwork.Key{SQL: query, Partitions: s.Partitions, Morsel: s.Morsel != 0,
			MorselRows: morselRows, Passes: r.Planner.PassSpec},
	}, nil
}

// Run executes p once under the profiler and packages the execution as
// an Outcome whose Events are the complete trace. extra sinks receive
// the same events (the server's UDP stream). With history enabled the
// run is recorded durably: the dot render and the begin record happen
// before the clock starts, so recorded wall times measure execution
// alone.
func (r *Runner) Run(ctx context.Context, p *Prepared, extra ...profiler.Sink) (*sharedwork.Outcome, error) {
	r.Inflight.Add(1)
	defer r.Inflight.Add(-1)
	plan := p.Comp.Plan
	// Two events (start + done) per instruction: preallocate exactly.
	// The sink is private to this run and read only after it completes,
	// so the lock-free variant applies.
	sink := profiler.NewOwnedSliceSink(2 * len(plan.Instrs))
	sinks := append([]profiler.Sink{sink}, extra...)
	var rec *tracestore.RunWriter
	var hb *profiler.Batcher
	if r.History != nil {
		var err error
		rec, err = r.History.Begin(tracestore.RunMeta{
			SQL:          p.SQL,
			Dot:          plancache.DotText(plan, p.Comp.Aux),
			Partitions:   p.Comp.Partitions,
			Workers:      p.Workers,
			Instructions: len(plan.Instrs),
			AutoTuned:    p.AutoTuned,
			TuneReason:   p.TuneReason,
		})
		if err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
		// Events coalesce into DefaultAppendBatch-event records, so the
		// hot path pays one buffered write per batch, not per event.
		hb = profiler.NewBatcher(rec, tracestore.DefaultAppendBatch, 0)
		hb.Instrument(r.Reg)
		sinks = append(sinks, hb)
	}
	start := time.Now()
	res, err := r.Engine.RunContext(ctx, plan, engine.Options{
		Workers:    p.Workers,
		MorselRows: p.MorselRows,
		Profiler:   profiler.New(sinks...),
		Label:      p.SQL,
	})
	elapsed := time.Since(start)
	r.Latency.Observe(elapsed.Microseconds())
	var runID uint64
	if rec != nil {
		hb.Close() // flush the tail batch into the store
		st := tracestore.RunStats{ElapsedUs: elapsed.Microseconds()}
		if err != nil {
			st.Err = err.Error()
		} else {
			st.Rows = res.Rows()
			st.CacheHit = p.Comp.Cached
		}
		if herr := rec.Finish(st); herr != nil && err == nil {
			return nil, fmt.Errorf("history: %w", herr)
		}
		runID = rec.ID()
	}
	if err != nil {
		return nil, err
	}
	events := sink.Take()
	r.Execs.Add(1)
	r.Events.Add(int64(len(events)))
	r.Rate.Add(int64(len(events)))
	return &sharedwork.Outcome{
		Res:        res,
		Events:     events,
		Elapsed:    elapsed,
		RunID:      runID,
		Partitions: p.Comp.Partitions,
		Workers:    p.Workers,
		MorselRows: p.MorselRows,
		AutoTuned:  p.AutoTuned,
		TuneReason: p.TuneReason,
		CacheHit:   p.Comp.Cached,
	}, nil
}

// Do serves p through the shared-work gate. With useCache, a live
// result-cache entry answers without running anything and a fresh
// outcome is cached afterwards. Otherwise a statement whose key matches
// an in-flight execution attaches to it, and the rest lead a Run. via
// reports how the outcome was obtained: "" when this call ran the plan,
// "attached" or "resultcache" when it did not. owned reports whether
// out.Events belong to the caller alone; when false they are shared
// and must be copied before any owning use.
func (r *Runner) Do(ctx context.Context, p *Prepared, useCache bool) (out *sharedwork.Outcome, via string, owned bool, err error) {
	if useCache {
		if out, ok := r.Shared.Cache.Get(p.Key); ok {
			r.Execs.Add(1)
			return out, "resultcache", false, nil
		}
	}
	out, err, attached, waiters := r.Shared.Flight.Do(ctx, p.Key, func() (*sharedwork.Outcome, error) {
		return r.Run(ctx, p)
	})
	if attached && err != nil && ctx.Err() == nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The leader was canceled, this caller was not: its claim on the
		// shared run died with the leader, so it runs solo.
		out, err = r.Run(ctx, p)
		attached, waiters = false, 0
	}
	if err != nil {
		return nil, "", false, err
	}
	if attached {
		// An attached consumer completed a statement but ran no plan and
		// produced no events of its own.
		r.Execs.Add(1)
		return out, "attached", false, nil
	}
	cached := useCache && r.Shared.Cache != nil
	if cached {
		r.Shared.Cache.Put(p.Key, out)
	}
	return out, "", waiters == 0 && !cached, nil
}

// Stream executes p with no profiler and no history, handing each
// result batch to emit as the engine produces it.
func (r *Runner) Stream(ctx context.Context, p *Prepared, emit func(names []string, cols []*storage.BAT) error) error {
	r.Inflight.Add(1)
	defer r.Inflight.Add(-1)
	_, err := r.Engine.RunContext(ctx, p.Comp.Plan, engine.Options{
		Workers:    p.Workers,
		MorselRows: p.MorselRows,
		Label:      p.SQL,
		Emit:       emit,
	})
	if err == nil {
		r.Execs.Add(1)
	}
	return err
}
