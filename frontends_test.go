// Front-end parity tests: DB.Exec and server QUERY execute through one
// runner, so the same statement must leave the same history record and
// move the same serving counters whichever front end sent it.
package stethoscope

import (
	"context"
	"errors"
	"sync"
	"testing"

	"stethoscope/internal/engine"
	"stethoscope/internal/mal"
)

const parityQuery = "select l_tax from lineitem where l_partkey=1"

// TestFrontEndParity runs one statement three ways with history on —
// DB.Exec, an untraced server QUERY (the shared-work path) and a traced
// QUERY (the per-session UDP path) — and checks that the three history
// records agree on every recorded setting, that each stores the full
// 2×Instructions trace, and that each run moves the serving counters by
// exactly one statement and 2×Instructions events.
func TestFrontEndParity(t *testing.T) {
	db, err := Open(WithScaleFactor(0.005), WithSeed(42), WithHistory(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Warm the plan cache so every run reports the same CacheHit.
	if _, err := db.Explain(parityQuery, ExecPartitions(Auto), ExecWorkers(Auto)); err != nil {
		t.Fatal(err)
	}
	srv, err := db.Serve(ctx, "parity", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := Attach(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	untraced, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer untraced.Close()
	traced, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	if err := traced.TraceTo(mon.Addr()); err != nil {
		t.Fatal(err)
	}

	// Sessions default to Auto partitions and workers; Exec asks for the
	// same.
	ways := []struct {
		name string
		run  func() error
	}{
		{"DB.Exec", func() error {
			_, err := db.Exec(ctx, parityQuery, ExecPartitions(Auto), ExecWorkers(Auto))
			return err
		}},
		{"untraced QUERY", func() error { _, err := untraced.Query(parityQuery); return err }},
		{"traced QUERY", func() error { _, err := traced.Query(parityQuery); return err }},
	}
	var records []RunInfo
	for _, w := range ways {
		before := db.Stats()
		if err := w.run(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		after := db.Stats()
		runs := db.History().Queries(1)
		if len(runs) != 1 {
			t.Fatalf("%s: history has no run", w.name)
		}
		rec := runs[0]
		records = append(records, rec)
		events := int64(2 * rec.Instructions)
		if rec.Events != int(events) {
			t.Errorf("%s: history stored %d events, want 2×%d", w.name, rec.Events, rec.Instructions)
		}
		if d := after.Execs - before.Execs; d != 1 {
			t.Errorf("%s: Stats().Execs grew by %d, want 1", w.name, d)
		}
		if d := after.Events - before.Events; d != events {
			t.Errorf("%s: Stats().Events grew by %d, want %d", w.name, d, events)
		}
	}
	if n := len(db.History().Queries(0)); n != len(ways) {
		t.Fatalf("history holds %d runs, want %d", n, len(ways))
	}
	want := records[0]
	if !want.OK() || !want.AutoTuned || want.TuneReason == "" || !want.CacheHit || want.Rows == 0 {
		t.Fatalf("DB.Exec record is not a complete auto-tuned cache-hit run: %+v", want)
	}
	for i, got := range records[1:] {
		name := ways[i+1].name
		if !got.OK() {
			t.Errorf("%s: run did not complete cleanly: %+v", name, got)
		}
		if got.Partitions != want.Partitions || got.Workers != want.Workers ||
			got.Instructions != want.Instructions || got.AutoTuned != want.AutoTuned ||
			got.TuneReason != want.TuneReason || got.Rows != want.Rows || got.CacheHit != want.CacheHit {
			t.Errorf("%s record differs from DB.Exec's:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestServerQueryCountsInFlight: a server QUERY that is still executing
// shows in DBStats.InFlight, like an Exec or Stream call. The export
// kernel is replaced by one that holds the run until the test releases
// it, then fails it, so the run is observable mid-flight and leaves no
// completed execution behind.
func TestServerQueryCountsInFlight(t *testing.T) {
	db, err := Open(WithScaleFactor(0.001))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	db.run.Engine.Register("sql", "exportResult", func(*engine.Context, *mal.Instr) error {
		<-gate
		return errors.New("export held by test")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := db.Serve(ctx, "inflight", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Deferred last so it runs first: srv.Close waits for the session
	// parked in the held kernel.
	defer release()

	done := make(chan error, 1)
	go func() {
		_, err := r.Query(parityQuery)
		done <- err
	}()
	waitFor(t, "QUERY in flight", func() bool { return db.Stats().InFlight == 1 })
	if got := db.Stats().Execs; got != 0 {
		t.Errorf("Execs = %d while the only QUERY is still running", got)
	}
	release()
	if err := <-done; err == nil {
		t.Fatal("QUERY succeeded through the failing export kernel")
	}
	if st := db.Stats(); st.InFlight != 0 || st.Execs != 0 {
		t.Errorf("after the failed QUERY: InFlight = %d, Execs = %d, want 0 and 0", st.InFlight, st.Execs)
	}
}
