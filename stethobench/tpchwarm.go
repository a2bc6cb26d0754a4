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
	"stethoscope/internal/batstore"
	"stethoscope/internal/metrics"
)

// warmSF is the scale factor of tpch-warm and serve-mixed.
const warmSF = 0.1

// tpchWarm: nproc analysts, each running the ten TPC-H statements in
// its own seeded order over its own texts, against a persisted SF 0.1
// dataset reopened with OpenPath, at Auto partitions and workers, with
// every plan cached. Bound by the engine, its kernels and the profiler;
// compile is cache hits only and shared work is bypassed by design.
type tpchWarm struct {
	dir     string
	n       int
	refs    []*reference
	texts   [][]string // [client][statement]
	order   []*rounds  // per client
	gen     int        // set-up generation; each set-up persists afresh
	dataDir string     // the current set-up's dataset

	db *stethoscope.DB // untraced state
	x  *layerExec      // traced state
	ex execer

	mu        sync.Mutex
	deferred  map[[2]int]retained
	traces    *traceLog // traced runs only
	base      metrics.Snapshot
	touchMs   float64
	bytesRead float64
}

func newTPCHWarm(seed uint64, dir string) *tpchWarm {
	n := nproc()
	w := &tpchWarm{dir: dir, n: n}
	qs := stethoscope.Queries()
	for c := 0; c < n; c++ {
		texts := make([]string, len(qs))
		for i, q := range qs {
			texts[i] = clientText(q.SQL, c)
		}
		w.texts = append(w.texts, texts)
		w.order = append(w.order, newRounds(newRNG(seed, uint64(c)), indexes(len(qs))))
	}
	return w
}

func (w *tpchWarm) context() runContext {
	return runContext{sf: warmSF, datasetSeed: datasetSeed, clients: w.n}
}

func (w *tpchWarm) clients() int { return w.n }

// prepare computes the references.
func (w *tpchWarm) prepare() (err error) {
	w.refs, err = tpchReferences(warmSF)
	return err
}

// setup generates and persists the dataset, reopens it, and runs every
// client's texts once: the plan cache then holds every plan and every
// column the statements read is in memory.
func (w *tpchWarm) setup(traced bool) error {
	w.deferred = map[[2]int]retained{}
	w.gen++
	w.dataDir = filepath.Join(w.dir, fmt.Sprintf("data-%d", w.gen))
	if err := persistDataset(warmSF, w.dataDir); err != nil {
		return err
	}
	if traced {
		return w.setupTraced()
	}
	db, err := stethoscope.OpenPath(w.dataDir)
	if err != nil {
		return err
	}
	w.db = db
	w.ex = &facadeExec{db: db, opts: []stethoscope.ExecOption{
		stethoscope.ExecPartitions(stethoscope.Auto), stethoscope.ExecWorkers(stethoscope.Auto)}}
	return w.warm()
}

// setupTraced opens the persisted dataset under the layer stack,
// reading every column once to time batstore's first touch.
func (w *tpchWarm) setupTraced() error {
	reg := metrics.NewRegistry()
	store, err := batstore.Open(w.dataDir)
	if err != nil {
		return err
	}
	store.Instrument(reg)
	cat, err := store.Catalog()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := touchAll(cat); err != nil {
		return err
	}
	w.touchMs = float64(time.Since(start).Nanoseconds()) / 1e6
	w.bytesRead = float64(reg.Snapshot().Value("stetho_batstore_bytes_read_total"))
	w.x = newLayerExec(cat, reg)
	w.x.partitions, w.x.workers = adaptive.Auto, adaptive.Auto
	w.ex = w.x
	if err := w.warm(); err != nil {
		return err
	}
	w.traces = &traceLog{}
	w.base = reg.Snapshot()
	return nil
}

// warm runs every client's texts once, clients concurrently.
func (w *tpchWarm) warm() error {
	return eachClient(w.n, func(c int) error {
		for i, text := range w.texts[c] {
			out, err := w.ex.exec(context.Background(), text, nil)
			if err == nil {
				_, err = checkOut(out, w.refs[i])
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", stethoscope.Queries()[i].ID, err)
			}
		}
		return nil
	})
}

func (w *tpchWarm) op(c int, ot *opTrace) (time.Duration, error) {
	i := w.order[c].next()
	start := time.Now()
	out, err := w.ex.exec(context.Background(), w.texts[c][i], ot)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	deferred, err := checkOut(out, w.refs[i])
	if err != nil {
		return lat, fmt.Errorf("%s: %w", stethoscope.Queries()[i].ID, err)
	}
	if deferred {
		w.mu.Lock()
		w.deferred[[2]int{c, i}] = retained{out: out, ref: w.refs[i]}
		w.mu.Unlock()
	}
	w.traces.keep(out.events)
	return lat, nil
}

func (w *tpchWarm) check() (int, error) {
	wrong, err := checkRetained(w.deferred)
	w.deferred = map[[2]int]retained{}
	return wrong, err
}

func (w *tpchWarm) layers(ops int, spans []span) map[string]float64 {
	m := map[string]float64{
		"batstore.first_touch_ms": w.touchMs,
		"batstore.bytes_read":     w.bytesRead,
	}
	spanLayers(m, spans, ops)
	engineLayers(m, delta{w.base, w.x.reg.Snapshot()}, ops)
	w.traces.report(m)
	return m
}

func (w *tpchWarm) close() error {
	var err error
	if w.db != nil {
		err = w.db.Close()
		w.db = nil
	}
	w.x, w.ex, w.traces = nil, nil, nil
	if rerr := os.RemoveAll(w.dataDir); err == nil {
		err = rerr
	}
	return err
}
