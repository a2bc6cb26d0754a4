package main

import (
	"context"
	"fmt"
	"maps"
	"time"

	"stethoscope"
	"stethoscope/internal/core"
	"stethoscope/internal/dot"
	"stethoscope/internal/layout"
	"stethoscope/internal/svg"
	"stethoscope/internal/trace"
	"stethoscope/internal/zvtm"
)

// offlinePartitions puts the captured plans in the paper's Figure 2
// regime: hundreds to a couple of thousand nodes (QX2: 1692).
const offlinePartitions = 64

// analyzeOffline: one analyst opening captured plans offline —
// OpenOffline(dot, trace) → SVG → Recolor(gradient) → SVG — over the
// dot and trace files of the ten TPC-H statements. The only workload
// reaching dot parsing, trace loading, layout, svg, the glyph space and
// the coloring algorithms: the paper's §4.1 client side.
type analyzeOffline struct {
	order *rounds
	plans []capturedPlan
	layer bool // traced: compose the analysis layers directly
}

// capturedPlan is one statement's offline artifacts and what opening
// them must show.
type capturedPlan struct {
	id       string
	dot      string
	trace    string
	nodes    int
	gradient stethoscope.Coloring
}

func newAnalyzeOffline(seed uint64) *analyzeOffline {
	return &analyzeOffline{order: newRounds(newRNG(seed, 0), indexes(len(stethoscope.Queries())))}
}

func (w *analyzeOffline) context() runContext {
	return runContext{sf: coldSF, datasetSeed: datasetSeed, clients: 1}
}

func (w *analyzeOffline) clients() int { return 1 }

func (w *analyzeOffline) prepare() error { return nil }

// setup executes the ten statements at 64 partitions and captures each
// one's dot and trace files, with the node count and gradient coloring
// an offline open of them shows.
func (w *analyzeOffline) setup(traced bool) error {
	w.layer = traced
	db, err := stethoscope.Open(stethoscope.WithScaleFactor(coldSF), stethoscope.WithSeed(datasetSeed))
	if err != nil {
		return err
	}
	defer db.Close()
	w.plans = nil
	for _, q := range stethoscope.Queries() {
		r, err := db.Exec(context.Background(), q.SQL, stethoscope.ExecPartitions(offlinePartitions),
			stethoscope.ExecWorkers(stethoscope.Auto))
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		p := capturedPlan{id: q.ID, dot: r.Dot(), trace: r.TraceText()}
		a, err := stethoscope.OpenOffline(p.dot, p.trace, stethoscope.WithColoring(stethoscope.ColorGradient))
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		if !a.MappingComplete() {
			return fmt.Errorf("%s: %s", q.ID, a.MappingSummary())
		}
		p.nodes, p.gradient = a.Nodes(), maps.Clone(a.Coloring())
		w.plans = append(w.plans, p)
	}
	return nil
}

func (w *analyzeOffline) op(_ int, ot *opTrace) (time.Duration, error) {
	p := &w.plans[w.order.next()]
	open := w.open
	if w.layer {
		open = w.openLayers
	}
	start := time.Now()
	res, err := open(p, ot)
	lat := time.Since(start)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", p.id, err)
	}
	if err := res.check(p); err != nil {
		return lat, fmt.Errorf("%s: %w", p.id, err)
	}
	return lat, nil
}

// opened is what one operation produced.
type opened struct {
	complete   bool
	nodes      int
	gradient   stethoscope.Coloring
	pair, grad string // the two SVG renders
}

func (o opened) check(p *capturedPlan) error {
	switch {
	case !o.complete:
		return fmt.Errorf("trace does not map onto the plan")
	case o.nodes != p.nodes:
		return fmt.Errorf("%d nodes, want %d", o.nodes, p.nodes)
	case !maps.Equal(o.gradient, p.gradient):
		return fmt.Errorf("gradient coloring differs from set-up's")
	case o.pair == "" || o.grad == "":
		return fmt.Errorf("empty SVG")
	}
	return nil
}

// open is the facade path.
func (w *analyzeOffline) open(p *capturedPlan, _ *opTrace) (opened, error) {
	a, err := stethoscope.OpenOffline(p.dot, p.trace)
	if err != nil {
		return opened{}, err
	}
	var o opened
	if o.pair, err = a.SVG(); err != nil {
		return opened{}, err
	}
	a.Recolor(stethoscope.WithColoring(stethoscope.ColorGradient))
	if o.grad, err = a.SVG(); err != nil {
		return opened{}, err
	}
	o.complete, o.nodes, o.gradient = a.MappingComplete(), a.Nodes(), a.Coloring()
	return o, nil
}

// openLayers composes what OpenOffline, SVG and Recolor compose —
// dot.Parse, trace.LoadString, then core.NewSession's layout → svg
// render → svg parse → glyph space → pc mapping → replay, the pair and
// gradient colorings, and Analysis.SVG's repaint and render — with a
// span around each layer call.
func (w *analyzeOffline) openLayers(p *capturedPlan, ot *opTrace) (opened, error) {
	ot.start("dot.parse")
	g, err := dot.Parse(p.dot)
	ot.end()
	if err != nil {
		return opened{}, err
	}
	ot.start("trace.load")
	st, err := trace.LoadString(p.trace)
	ot.end()
	if err != nil {
		return opened{}, err
	}
	ot.start("layout.compute")
	lay, err := layout.Compute(g, layout.DefaultOptions())
	ot.end()
	if err != nil {
		return opened{}, err
	}
	ot.start("svg.render")
	rendered, err := svg.RenderString(g, lay, nil, svg.DefaultStyle())
	ot.end()
	if err != nil {
		return opened{}, err
	}
	ot.start("svg.parse")
	doc, err := svg.ParseString(rendered)
	ot.end()
	if err != nil {
		return opened{}, err
	}
	ot.start("zvtm.build")
	vs, err := zvtm.FromSVG(g.Name, doc)
	queue := zvtm.NewRenderQueue(vs, 0)
	ot.end()
	if err != nil {
		return opened{}, err
	}
	ot.start("trace.map")
	mapping := trace.MapToGraph(st, g)
	ot.end()
	ot.start("core.replay")
	sess := &core.Session{Graph: g, Layout: lay, Space: vs, Trace: st, Mapping: mapping,
		Camera: &zvtm.Camera{CX: doc.Width / 2, CY: doc.Height / 2}, Queue: queue, Animator: &zvtm.Animator{}}
	sess.Replay = core.NewReplay(st, vs, queue)
	ot.end()

	o := opened{complete: mapping.Complete(), nodes: len(g.Nodes)}
	ot.start("core.color")
	pair := core.PairElision(st.Events())
	ot.end()
	if o.pair, err = renderColored(sess, pair, ot); err != nil {
		return opened{}, err
	}
	ot.start("core.color")
	o.gradient, _ = core.Gradient(st.Events())
	ot.end()
	if o.grad, err = renderColored(sess, o.gradient, ot); err != nil {
		return opened{}, err
	}
	return o, nil
}

// renderColored is Analysis.SVG: repaint the glyph space from the
// coloring alone, then render the display window.
func renderColored(sess *core.Session, colors core.Coloring, ot *opTrace) (string, error) {
	ot.start("zvtm.paint")
	for _, id := range sess.Space.NodeIDs() {
		sess.Space.SetNodeColor(id, "")
	}
	for pc, color := range colors {
		sess.Space.SetNodeColor(fmt.Sprintf("n%d", pc), string(color))
	}
	fills := sess.Fills()
	ot.end()
	ot.start("svg.render")
	out, err := svg.RenderString(sess.Graph, sess.Layout, fills, svg.DefaultStyle())
	ot.end()
	return out, err
}

func (w *analyzeOffline) check() (int, error) { return 0, nil }

func (w *analyzeOffline) layers(ops int, spans []span) map[string]float64 {
	m := map[string]float64{}
	spanLayers(m, spans, ops)
	return m
}

func (w *analyzeOffline) close() error {
	w.plans = nil
	return nil
}
