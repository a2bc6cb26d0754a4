package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"stethoscope"
	"stethoscope/internal/sql"
)

func TestSameSeedSameStreams(t *testing.T) {
	a, b, c := newColdStream(7), newColdStream(7), newColdStream(8)
	differs := false
	for i := 0; i < 500; i++ {
		x, err := a.next()
		if err != nil {
			t.Fatal(err)
		}
		y, _ := b.next()
		z, _ := c.next()
		if x != y {
			t.Fatalf("statement %d differs for the same seed:\n%s\n%s", i, x, y)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same compile-cold stream")
	}

	for _, items := range [][]int{indexes(10), append(indexes(10), 9)} {
		r1, r2 := newRounds(newRNG(3, 1), items), newRounds(newRNG(3, 1), items)
		for i := 0; i < 200; i++ {
			if x, y := r1.next(), r2.next(); x != y {
				t.Fatalf("order item %d: %d vs %d for the same seed", i, x, y)
			}
		}
	}
}

func TestRoundsAreBalanced(t *testing.T) {
	items := append(indexes(10), 9) // item 9 twice per round
	r := newRounds(newRNG(1, 0), items)
	counts := map[int]int{}
	for i := 0; i < 5*len(items); i++ {
		counts[r.next()]++
	}
	for item := 0; item < 10; item++ {
		want := 5
		if item == 9 {
			want = 10
		}
		if counts[item] != want {
			t.Errorf("item %d ran %d times in 5 rounds, want %d", item, counts[item], want)
		}
	}
}

func TestColdTextsNeverRepeatAndParse(t *testing.T) {
	s := newColdStream(1)
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		text, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[text] {
			t.Fatalf("statement %d repeats: %s", i, text)
		}
		seen[text] = true
		if i < 200 {
			if _, err := sql.Parse(text); err != nil {
				t.Fatalf("statement %d does not parse: %v\n%s", i, err, text)
			}
		}
	}
}

func TestClientTextsSurviveTheWire(t *testing.T) {
	q := "select a,\n\t b from t\n where x = 1"
	seen := map[string]bool{}
	for c := 0; c < 4; c++ {
		text := clientText(q, c)
		if strings.ContainsAny(text, "\n\t") {
			t.Fatalf("client text is not one line: %q", text)
		}
		// The server trims each command line; the texts must stay apart.
		wire := strings.TrimSpace(text)
		if seen[wire] {
			t.Fatalf("client %d's text collides with another client's: %q", c, wire)
		}
		seen[wire] = true
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Op: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", Op: 1, ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "leaf", Op: 1, ID: 3, Parent: 1, Start: 12, End: 15},
		{Name: "a", Op: 2, ID: 0, Parent: -1, Start: 200, End: 210},
		{Name: "leaf", Op: 2, ID: 1, Parent: 0, Start: 205, End: 230}, // overruns its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": 100 - 40,            // children cover [10, 50)
		"a":    (20 - 3) + (10 - 5), // op 1 minus leaf; op 2 minus the clipped [205, 210)
		"b":    30,
		"leaf": 3 + 25,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestOpTraceNesting(t *testing.T) {
	tr := newTracer()
	ot := tr.begin()
	ot.start("outer")
	ot.start("inner")
	ot.end()
	ot.start("sibling")
	ot.finish() // closes sibling and outer
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	parents := map[string]int{}
	for _, s := range spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
	}
	if parents["outer"] != -1 || parents["inner"] != 0 || parents["sibling"] != 0 {
		t.Errorf("parents = %v", parents)
	}
	var none *tracer
	none.begin().start("ignored") // untraced paths share the traced code
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	if _, ok := tailPercentile(sample(999), 99); ok {
		t.Error("p99 reported from 999 samples: only 9 lie beyond it")
	}
	if v, ok := tailPercentile(sample(1000), 99); !ok || v < 989 || v > 990 {
		t.Errorf("p99 of 0..999 = %v, %v; want about 989", v, ok)
	}
	if _, ok := tailPercentile(sample(99), 90); ok {
		t.Error("p90 reported from 99 samples")
	}
	if got := percentile(sample(101), 50); got != 50 {
		t.Errorf("median of 0..100 = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestReferenceTolerance(t *testing.T) {
	ref := newReference("k\tsum\tn\n1\t0.30000000000000004\t7\n", 1)
	if err := ref.checkText("k\tsum\tn\n1\t0.3\t7\n"); err != nil {
		t.Errorf("re-associated float sum rejected: %v", err)
	}
	if err := ref.checkText("k\tsum\tn\n1\t0.31\t7\n"); err == nil {
		t.Error("float off by 3% accepted")
	}
	if err := ref.checkText("k\tsum\tn\n1\t0.3\t8\n"); err == nil {
		t.Error("wrong count accepted")
	}
	if err := ref.checkLines([]string{"k\tsum\tn"}); err == nil {
		t.Error("missing row accepted")
	}
}

func TestDeliveryChecksEachQuery(t *testing.T) {
	d := newDelivery(true)
	send := func(seqs ...int64) {
		for _, s := range seqs {
			d.OnEvent("server", stethoscope.Event{Seq: s})
		}
	}
	const short = 20 * time.Millisecond

	d.begin(4)
	send(0, 1, 2, 3)
	if events, err := d.wait(time.Second); err != nil || len(events) != 4 {
		t.Fatalf("complete query: %d events, %v", len(events), err)
	}

	// A lost event fails its query and lowers the delivered ratio.
	d.begin(4)
	send(0, 1, 3)
	if _, err := d.wait(short); err == nil {
		t.Error("query with a lost event passed")
	}
	if recv, exp := d.totals(); recv != 7 || exp != 8 {
		t.Errorf("totals after a loss = %d/%d, want 7/8", recv, exp)
	}

	// The lost event arriving late, between queries, belongs to neither.
	send(2)
	d.begin(2)
	send(0)
	if _, err := d.wait(short); err == nil {
		t.Error("next query passed on the previous query's late event")
	}

	// A late event landing inside the next query's window fails it,
	// though the window received every event it expected.
	for _, late := range []int64{0, 3} { // a duplicate, an out-of-range one
		d.begin(2)
		send(late, 0, 1)
		if _, err := d.wait(short); err == nil {
			t.Errorf("query passed with a stray event %d in its window", late)
		}
	}
}

func TestCountInstrs(t *testing.T) {
	listing := "function user.main();\n# select a\n    X_1 := sql.mvc();\n    X_2 := sql.bind(X_1);\nend user.main;\n" +
		"fragment 0 (params=1, caps=0, outs=1);\n    Y_1 := algebra.select(P_0);\nend fragment 0;\n"
	if got := countInstrs(listing); got != 2 {
		t.Errorf("countInstrs = %d, want 2 (fragment bodies excluded)", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, at the repository
// root, naming exactly the metrics stethobench reports, with their units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, stethobench %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), stethobench %s (%s)",
					what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, stethobench %v", names, workloadNames())
	}
}
