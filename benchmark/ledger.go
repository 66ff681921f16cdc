package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"nxgraph/internal/trace"
)

// benchSpan is one span the benchmark records around a call into the
// program. A round or a query is an op: its own span has ID == Op, and
// the spans of the calls it caused carry it as Parent and share its Op.
type benchSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps the benchmark's spans in memory until the run ends. A
// nil *spanLog records nothing, so the untraced pass pays nothing.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []benchSpan
	// engine holds the program's own timeline for the last traced op, so
	// the file shows both sides of the boundary once.
	engine []trace.Timeline
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newOp allocates the id of one round's or one query's own span.
func (l *spanLog) newOp() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// addOp records the op's own span, add a span the op caused.
func (l *spanLog) addOp(op uint64, name string, start, end time.Time) {
	l.record(benchSpan{ID: op, Op: op, Name: name}, start, end)
}

func (l *spanLog) add(op uint64, name string, start, end time.Time) {
	l.record(benchSpan{Parent: op, Op: op, Name: name}, start, end)
}

func (l *spanLog) record(sp benchSpan, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if sp.ID == 0 {
		l.next++
		sp.ID = l.next
	}
	sp.StartUS, sp.EndUS = start.Sub(l.t0).Microseconds(), end.Sub(l.t0).Microseconds()
	l.spans = append(l.spans, sp)
}

func (l *spanLog) setEngine(tls ...trace.Timeline) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.engine = tls
	l.mu.Unlock()
}

// write stores the spans as <dir>/trace-<workload>.json.
func (l *spanLog) write(dir, workload string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := map[string]any{"workload": workload, "spans": l.spans, "engine_last_op": l.engine}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}

// engineLedger sums what the program's own run traces say over many
// runs: the per-iteration StepStats and the span time of each kind. The
// step loop's children of an iteration (fetch-batch waits, gathers, the
// apply) are the blocking path; block loads run on prefetch goroutines,
// so their time is busy time beside it, not a row of it.
type engineLedger struct {
	runs                         int
	edges, computeUS, stallUS    int64
	bytesRead, bytesWritten      int64
	runUS, runSelfUS, iterSelfUS int64
	gatherUS, applyUS            int64
	overlayUS, blockLoadUS       int64
	// missBytes and missLoadUS are the decoded bytes and the load time of
	// blocks that went to disk.
	missBytes, missLoadUS int64
	dropped               int64
	// callerUS is what the benchmark's own spans around the calls add up
	// to (library path only).
	callerUS int64
}

func (l *engineLedger) add(tl trace.Timeline) {
	l.dropped += tl.DroppedSpans
	for _, st := range tl.Steps {
		l.edges += st.Edges
		l.computeUS += st.ComputeUS
		l.stallUS += st.StallUS
		l.bytesRead += st.BytesRead
		l.bytesWritten += st.BytesWritten
	}
	kids := map[uint64][]trace.Span{}
	for _, sp := range tl.Spans {
		switch sp.Kind {
		case trace.KindIteration, trace.KindOverlay, trace.KindFetchBatch, trace.KindGather, trace.KindApply:
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	for _, sp := range tl.Spans {
		switch sp.Kind {
		case trace.KindRun:
			l.runUS += sp.DurUS
			l.runSelfUS += selfUS(sp, kids[sp.ID])
		case trace.KindIteration:
			l.iterSelfUS += selfUS(sp, kids[sp.ID])
		case trace.KindGather:
			l.gatherUS += sp.DurUS
		case trace.KindApply:
			l.applyUS += sp.DurUS
		case trace.KindOverlay:
			l.overlayUS += sp.DurUS
		case trace.KindBlockLoad:
			l.blockLoadUS += sp.DurUS
			if sp.Tag == trace.TagMiss {
				l.missBytes += sp.Bytes
				l.missLoadUS += sp.DurUS
			}
		}
	}
}

// selfUS is a span's duration minus the part of that interval its child
// spans cover.
func selfUS(parent trace.Span, kids []trace.Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	covered, edge := int64(0), lo
	for _, k := range kids {
		s, e := max(k.StartUS, edge), min(k.StartUS+k.DurUS, hi)
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return parent.DurUS - covered
}

// nsPerEdge turns a microsecond total into nanoseconds per gathered edge.
func (l *engineLedger) nsPerEdge(us int64) float64 {
	return ratio(float64(us)*1e3, float64(l.edges))
}

// fill writes the engine and diskio rows every workload reports.
func (l *engineLedger) fill(v map[string]float64) {
	v["engine.compute_ns_per_edge"] = l.nsPerEdge(l.computeUS)
	v["engine.stall_ns_per_edge"] = l.nsPerEdge(l.stallUS)
	v["engine.stall_share"] = ratio(float64(l.stallUS), float64(l.stallUS+l.computeUS))
	v["engine.run_self_ns_per_edge"] = l.nsPerEdge(l.runSelfUS)
	v["engine.overlay_share"] = ratio(float64(l.overlayUS), float64(l.runUS))
	v["engine.iteration_self_ns_per_edge"] = l.nsPerEdge(l.iterSelfUS)
	v["engine.gather_self_ns_per_edge"] = l.nsPerEdge(l.gatherUS)
	v["engine.apply_self_ns_per_edge"] = l.nsPerEdge(l.applyUS)
	v["engine.block_load_busy_ns_per_edge"] = l.nsPerEdge(l.blockLoadUS)
	v["diskio.read_bytes_per_edge"] = ratio(float64(l.bytesRead), float64(l.edges))
	v["diskio.written_bytes_per_edge"] = ratio(float64(l.bytesWritten), float64(l.edges))
}
