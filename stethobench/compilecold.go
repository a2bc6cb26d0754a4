package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stethoscope"
	"stethoscope/internal/adaptive"
	"stethoscope/internal/metrics"
	"stethoscope/internal/storage"
	"stethoscope/internal/tpch"
	"stethoscope/internal/tracestore"
)

const (
	// coldSF keeps execution cheap so compile dominates.
	coldSF = 0.01
	// coldPartitions yields plans of about a thousand instructions.
	coldPartitions = 64
	// coldSampleEvery and coldMaxSamples pick the statements whose
	// results are checked against a sequential reference after the
	// interval: one in coldSampleEvery, at most coldMaxSamples.
	coldSampleEvery = 8
	coldMaxSamples  = 96
)

// compileCold: nproc clients, every statement text new (seeded
// predicate constants over the TPC-H templates), so the stream misses
// and overflows a full plan cache; 64 partitions and history on. Bound
// by compile, dot render and the trace store: the write side of the
// layers tpch-warm only reads.
//
// History runs with the store's default retention (8 MiB segments, no
// size cap): at a few hundred KB per stored run, segments roll over
// several times a second. A capped store deletes as much as it writes,
// and where the disk discards online, unlinking a synced segment costs
// tens of milliseconds per MB under the store's append lock, so
// throughput would measure the disk instead of the layers above it.
type compileCold struct {
	seed    uint64
	dir     string
	n       int
	gen     int    // set-up generation, names the history directory
	histDir string // the current set-up's history store
	refDB   *stethoscope.DB

	db *stethoscope.DB // untraced state
	x  *layerExec      // traced state
	ex execer

	mu      sync.Mutex
	stream  *coldStream
	pick    *rounds // sampling: 0 marks a sampled statement
	samples []coldSample
	traces  *traceLog // traced runs: the sampled statements' traces
	base    metrics.Snapshot
}

type coldSample struct {
	text string
	out  execOut
}

func newCompileCold(seed uint64, dir string) *compileCold {
	return &compileCold{seed: seed, dir: dir, n: nproc()}
}

func (w *compileCold) context() runContext {
	return runContext{sf: coldSF, datasetSeed: datasetSeed, clients: w.n}
}

func (w *compileCold) clients() int { return w.n }

// prepare opens the reference database; references are computed per
// sampled statement after each interval.
func (w *compileCold) prepare() (err error) {
	w.refDB, err = stethoscope.Open(stethoscope.WithScaleFactor(coldSF), stethoscope.WithSeed(datasetSeed),
		stethoscope.WithPlanCacheSize(0))
	return err
}

// setup generates the dataset, opens a fresh history store, and fills
// the plan cache with fresh plans.
func (w *compileCold) setup(traced bool) error {
	w.stream = newColdStream(w.seed)
	w.pick = newRounds(newRNG(w.seed, 0x5a), indexes(coldSampleEvery))
	w.samples = nil
	w.gen++
	w.histDir = filepath.Join(w.dir, fmt.Sprintf("history-%d", w.gen))
	if traced {
		return w.setupTraced()
	}
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(coldSF), stethoscope.WithSeed(datasetSeed),
		stethoscope.WithHistory(w.histDir))
	if err != nil {
		return err
	}
	w.db = db
	opts := []stethoscope.ExecOption{stethoscope.ExecPartitions(coldPartitions), stethoscope.ExecWorkers(stethoscope.Auto)}
	w.ex = &facadeExec{db: db, opts: opts}
	return w.fillCache(func(text string) error {
		_, err := db.Explain(text, opts...)
		return err
	})
}

// setupTraced builds the same state under the layer stack.
func (w *compileCold) setupTraced() error {
	reg := metrics.NewRegistry()
	cat := storage.NewCatalog()
	if err := tpch.Load(cat, tpch.Config{SF: coldSF, Seed: datasetSeed}); err != nil {
		return err
	}
	// WithHistory's store options: default segments, no cap, the
	// facade's 30 s compaction sweep.
	hist, err := tracestore.Open(tracestore.Options{Dir: w.histDir, CompactEvery: 30 * time.Second})
	if err != nil {
		return err
	}
	hist.Instrument(reg)
	w.x = newLayerExec(cat, reg)
	w.x.partitions, w.x.workers, w.x.hist = coldPartitions, adaptive.Auto, hist
	w.ex = w.x
	if err := w.fillCache(func(text string) error {
		_, err := w.x.compile(text, nil)
		return err
	}); err != nil {
		return err
	}
	w.traces = &traceLog{}
	w.base = reg.Snapshot()
	return nil
}

// fillCache compiles fresh statements, clients concurrently, until the
// plan cache is full.
func (w *compileCold) fillCache(compile func(string) error) error {
	per := (stethoscope.DefaultPlanCacheSize + w.n - 1) / w.n
	return eachClient(w.n, func(int) error {
		for i := 0; i < per; i++ {
			text, err := w.next()
			if err == nil {
				err = compile(text)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *compileCold) next() (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stream.next()
}

func (w *compileCold) op(c int, ot *opTrace) (time.Duration, error) {
	w.mu.Lock()
	text, err := w.stream.next()
	sampled := w.pick.next() == 0 && len(w.samples) < coldMaxSamples
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	out, err := w.ex.exec(context.Background(), text, ot)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if sampled {
		w.mu.Lock()
		w.samples = append(w.samples, coldSample{text: text, out: out})
		w.mu.Unlock()
		w.traces.keep(out.events)
	}
	return lat, nil
}

// check compares every sampled result with a sequential, unpartitioned
// execution of the same text on the reference database.
func (w *compileCold) check() (wrong int, first error) {
	for _, s := range w.samples {
		ref, err := referenceOf(w.refDB, s.text)
		if err == nil {
			if s.out.rows != ref.rows {
				err = fmt.Errorf("%d rows, want %d", s.out.rows, ref.rows)
			} else {
				err = ref.checkText(s.out.table())
			}
		}
		if err != nil {
			wrong++
			if first == nil {
				first = fmt.Errorf("%q: %w", s.text, err)
			}
		}
	}
	w.samples = nil
	return wrong, first
}

func (w *compileCold) layers(ops int, spans []span) map[string]float64 {
	m := map[string]float64{}
	spanLayers(m, spans, ops)
	d := delta{w.base, w.x.reg.Snapshot()}
	engineLayers(m, d, ops)
	w.traces.report(m)
	m["tracestore.bytes_per_run"] = ratio(d.value("stetho_tracestore_append_bytes_total"), float64(ops))
	m["tracestore.compactions"] = d.value("stetho_tracestore_compactions_total")
	return m
}

func (w *compileCold) close() error {
	var err error
	if w.x != nil && w.x.hist != nil {
		err = w.x.hist.Close()
	}
	w.x, w.ex, w.traces = nil, nil, nil
	if w.db != nil {
		if cerr := w.db.Close(); err == nil {
			err = cerr
		}
		w.db = nil
	}
	if w.histDir != "" {
		if rerr := os.RemoveAll(w.histDir); err == nil {
			err = rerr
		}
	}
	return err
}
