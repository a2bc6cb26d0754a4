package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stethoscope"
	"stethoscope/internal/metrics"
)

const (
	// History retention for the server's store: small segments so that
	// rollover and compaction run inside every timed interval.
	serveSegmentBytes = 128 << 10
	serveCapBytes     = 1 << 20
	serveCompactEvery = 250 * time.Millisecond
	// deliveryTimeout bounds the wait for a traced query's events; a
	// trace not complete by then counts the operation as failed.
	deliveryTimeout = 5 * time.Second
	// settleQuiet is the silence that, after a failed traced query,
	// shows its late events have stopped arriving.
	settleQuiet = 200 * time.Millisecond
	// hotCopies is how often the hot statement appears in each round of
	// a connection's ten statements: ten makes it half the requests.
	hotCopies = 10
)

// serveMixed: DB.Serve on loopback with history on and nproc
// connections, all at "SET morsel auto". Connection 0 streams its
// traces (TRACE) to an in-process Attach monitor, so its queries take
// the solo QUERY path over UDP; the others are untraced and take the
// shared-work QUERY path. Half of all requests are one identical hot
// statement (Q1), the rest each connection's own TPC-H texts. The only
// workload reaching the server, the wire protocols, shared work and the
// morsel and shared-scan paths.
type serveMixed struct {
	dir     string
	n       int
	gen     int    // set-up generation; each set-up writes fresh directories
	dataDir string // the current set-up's dataset
	histDir string // and its history store
	refs    []*reference
	hot     string
	texts   [][]string // [connection][statement]
	order   []*rounds  // per connection; item len(texts[c]) is the hot statement
	instrs  map[string]int

	cancel context.CancelFunc
	db     *stethoscope.DB
	srv    *stethoscope.Server
	mon    *stethoscope.Monitor
	conns  []*stethoscope.Remote
	events *delivery

	// Connection 0's accounting; only its client goroutine touches it.
	recv0, exp0 int64 // delivery totals at the start of the interval
	lags        []float64
	traces      *traceLog // traced runs only

	base metrics.Snapshot
}

func newServeMixed(seed uint64, dir string) *serveMixed {
	n := nproc()
	w := &serveMixed{dir: dir, n: n}
	qs := stethoscope.Queries()
	hot := queryIndex("Q1")
	w.hot = oneLine(qs[hot].SQL)
	items := indexes(len(qs))
	for i := 0; i < hotCopies; i++ {
		items = append(items, len(qs))
	}
	for c := 0; c < n; c++ {
		texts := make([]string, len(qs))
		for i, q := range qs {
			texts[i] = clientText(q.SQL, c)
		}
		w.texts = append(w.texts, texts)
		w.order = append(w.order, newRounds(newRNG(seed, uint64(c)), items))
	}
	return w
}

func (w *serveMixed) context() runContext {
	return runContext{sf: warmSF, datasetSeed: datasetSeed, clients: w.n}
}

func (w *serveMixed) clients() int { return w.n }

func (w *serveMixed) prepare() (err error) {
	w.refs, err = tpchReferences(warmSF)
	return err
}

// setup persists and reopens the dataset with history on, starts the
// server and the monitor, connects every client, and runs each
// connection's statements once; the history store is then filled to
// its cap.
func (w *serveMixed) setup(traced bool) error {
	w.gen++
	w.histDir = filepath.Join(w.dir, fmt.Sprintf("history-%d", w.gen))
	w.dataDir = filepath.Join(w.dir, fmt.Sprintf("data-%d", w.gen))
	if err := persistDataset(warmSF, w.dataDir); err != nil {
		return err
	}
	db, err := stethoscope.OpenPath(w.dataDir, stethoscope.WithHistoryConfig(stethoscope.HistoryConfig{
		Dir: w.histDir, MaxSegmentBytes: serveSegmentBytes, MaxTotalBytes: serveCapBytes,
		CompactEvery: serveCompactEvery}))
	if err != nil {
		return err
	}
	w.db = db
	var ctx context.Context
	ctx, w.cancel = context.WithCancel(context.Background())
	if w.srv, err = db.Serve(ctx, "stethobench", "127.0.0.1:0"); err != nil {
		return err
	}
	w.events = newDelivery(traced)
	if w.mon, err = stethoscope.Attach(ctx, "127.0.0.1:0", stethoscope.WithEventSink(w.events)); err != nil {
		return err
	}
	for c := 0; c < w.n; c++ {
		r, err := stethoscope.Dial(w.srv.Addr())
		if err != nil {
			return err
		}
		w.conns = append(w.conns, r)
		if status, _, err := r.Command("SET morsel auto"); err != nil || !strings.HasPrefix(status, "ok") {
			return fmt.Errorf("SET morsel auto: %q %v", status, err)
		}
	}
	if err := w.conns[0].TraceTo(w.mon.Addr()); err != nil {
		return err
	}
	if err := w.countInstructions(); err != nil {
		return err
	}
	if err := w.warm(); err != nil {
		return err
	}
	filler := clientText(w.texts[0][queryIndex("QX1")], w.n)
	if err := fillHistory(db, filler, serveCapBytes, serveSegmentBytes,
		stethoscope.ExecPartitions(stethoscope.Auto), stethoscope.ExecMorselRows(stethoscope.Auto)); err != nil {
		return err
	}
	w.base = db.Metrics()
	w.recv0, w.exp0 = w.events.totals()
	w.lags, w.traces = nil, nil
	if traced {
		w.traces = &traceLog{}
	}
	return nil
}

// countInstructions records the plan length of every statement the
// traced connection sends, compiled exactly as its session compiles
// (Auto partitions, Auto morsels): each QUERY must deliver two events
// (start and done) per instruction.
func (w *serveMixed) countInstructions() error {
	w.instrs = map[string]int{}
	for _, text := range append([]string{w.hot}, w.texts[0]...) {
		listing, err := w.db.Explain(text, stethoscope.ExecPartitions(stethoscope.Auto),
			stethoscope.ExecMorselRows(stethoscope.Auto))
		if err != nil {
			return err
		}
		w.instrs[text] = countInstrs(listing)
	}
	return nil
}

// countInstrs counts the instructions of the main function in a MAL
// listing: the indented lines between its header and "end user.main;".
func countInstrs(listing string) int {
	main, _, _ := strings.Cut(listing, "end user.main;")
	n := 0
	for _, line := range strings.Split(main, "\n") {
		if strings.HasPrefix(line, "    ") {
			n++
		}
	}
	return n
}

// warm runs every connection's statements once, connections
// concurrently.
func (w *serveMixed) warm() error {
	return eachClient(w.n, func(c int) error {
		for item := 0; item <= len(w.texts[c]); item++ {
			if _, err := w.query(c, item, nil); err != nil {
				return fmt.Errorf("warm-up connection %d: %w", c, err)
			}
		}
		return nil
	})
}

func (w *serveMixed) op(c int, ot *opTrace) (time.Duration, error) {
	return w.query(c, w.order[c].next(), ot)
}

// query sends one statement on connection c and checks the reply; on
// the traced connection the operation lasts until the query's trace
// has arrived at the monitor too.
func (w *serveMixed) query(c, item int, ot *opTrace) (time.Duration, error) {
	text, ref := w.hot, w.refs[queryIndex("Q1")]
	if item < len(w.texts[c]) {
		text, ref = w.texts[c][item], w.refs[item]
	}
	if c == 0 {
		w.events.begin(2 * w.instrs[text])
	}
	start := time.Now()
	ot.start("server.roundtrip")
	lines, err := w.conns[c].Query(text)
	ot.end()
	if c == 0 {
		timeout := deliveryTimeout
		if err != nil {
			timeout = 0
		}
		arrived := time.Now()
		ot.start("netproto.delivery")
		events, derr := w.events.wait(timeout)
		ot.end()
		if err == nil {
			err = derr
		}
		if err != nil {
			w.events.settle(settleQuiet, deliveryTimeout)
			return time.Since(start), err
		}
		if ot != nil {
			w.lags = append(w.lags, float64(time.Since(arrived).Nanoseconds())/1e6)
		}
		lat := time.Since(start)
		w.traces.keep(events)
		return lat, ref.checkLines(lines)
	}
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, ref.checkLines(lines)
}

func (w *serveMixed) check() (int, error) { return 0, nil }

func (w *serveMixed) layers(ops int, spans []span) map[string]float64 {
	m := map[string]float64{}
	spanLayers(m, spans, ops)
	d := delta{w.base, w.db.Metrics()}
	engineLayers(m, d, ops)
	w.traces.report(m)
	m["engine.run_us"] = d.histMean("stetho_query_latency_us")
	m["server.exec_us"] = d.histMean("stetho_query_latency_us")
	m["server.bytes_per_op"] = ratio(d.value("stetho_server_bytes_written_total"), float64(ops))
	m["tracestore.bytes_per_run"] = ratio(d.value("stetho_tracestore_append_bytes_total"),
		d.value("stetho_engine_runs_total"))
	m["tracestore.compactions"] = d.value("stetho_tracestore_compactions_total")
	recv, exp := w.events.totals()
	m["netproto.events_delivered_ratio"] = ratio(float64(recv-w.recv0), float64(exp-w.exp0))
	m["netproto.delivery_lag_ms"] = median(w.lags)
	m["batstore.bytes_read"] = float64(w.base.Value("stetho_batstore_bytes_read_total"))
	return m
}

func (w *serveMixed) close() error {
	var errs []error
	for _, r := range w.conns {
		errs = append(errs, r.Close())
	}
	w.conns = nil
	if w.mon != nil {
		errs = append(errs, w.mon.Close())
		w.mon = nil
	}
	if w.srv != nil {
		errs = append(errs, w.srv.Close())
		w.srv = nil
	}
	if w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
	if w.db != nil {
		errs = append(errs, w.db.Close())
		w.db = nil
	}
	if w.histDir != "" {
		errs = append(errs, os.RemoveAll(w.histDir), os.RemoveAll(w.dataDir))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// delivery is the monitor's event sink and the traced connection's
// per-query delivery check. The server runs each QUERY under a fresh
// profiler, so its events carry the sequence numbers 0 to
// 2×instructions−1, and it sends them all before it replies. A query
// passes only when each of its sequence numbers arrived exactly once.
// Events arriving while no query is open (late events of a failed one)
// are received but belong to no query. The totals are never adjusted:
// received over expected falls with every lost event.
type delivery struct {
	keep bool // hand the open query's events to its caller
	wake chan struct{}

	mu       sync.Mutex
	received int64 // events accepted since set-up
	expected int64 // events the opened queries had to deliver
	open     bool
	seen     []bool // the open query's sequence numbers received
	missing  int    // how many of them have not arrived
	bad      int    // its duplicate or out-of-range events
	events   []stethoscope.Event
}

func newDelivery(keep bool) *delivery {
	return &delivery{keep: keep, wake: make(chan struct{}, 1)}
}

// OnEvent implements stethoscope.EventSink.
func (d *delivery) OnEvent(_ string, ev stethoscope.Event) {
	d.mu.Lock()
	d.received++
	if d.open {
		if ev.Seq < 0 || ev.Seq >= int64(len(d.seen)) || d.seen[ev.Seq] {
			d.bad++
		} else {
			d.seen[ev.Seq] = true
			d.missing--
		}
		if d.keep {
			d.events = append(d.events, ev)
		}
	}
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// begin opens the window of a query that must deliver want events; call
// it before the query is sent.
func (d *delivery) begin(want int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.open, d.seen, d.missing, d.bad, d.events = true, make([]bool, want), want, 0, nil
	d.expected += int64(want)
}

// wait blocks until the open query has delivered every event or timeout
// has passed, closes its window, and hands over its events (when kept).
func (d *delivery) wait(timeout time.Duration) ([]stethoscope.Event, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	expired := false
	for {
		d.mu.Lock()
		if d.missing == 0 || expired {
			want, missing, bad, events := len(d.seen), d.missing, d.bad, d.events
			d.open, d.seen, d.events = false, nil, nil
			d.mu.Unlock()
			switch {
			case missing > 0:
				return nil, fmt.Errorf("%d of %d trace events missing after %v", missing, want, timeout)
			case bad > 0:
				return nil, fmt.Errorf("%d duplicate or out-of-range trace events", bad)
			}
			return events, nil
		}
		d.mu.Unlock()
		select {
		case <-d.wake:
		case <-t.C:
			expired = true
		}
	}
}

// settle waits, after a failed query, until no event has arrived for
// quiet (at most max), so that the failed query's late events do not
// land in the next query's window.
func (d *delivery) settle(quiet, max time.Duration) {
	deadline := time.Now().Add(max)
	last, _ := d.totals()
	for time.Now().Before(deadline) {
		time.Sleep(quiet)
		n, _ := d.totals()
		if n == last {
			return
		}
		last = n
	}
}

// totals returns the events received and the events expected so far.
func (d *delivery) totals() (received, expected int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.received, d.expected
}
