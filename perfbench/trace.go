package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tapestry/internal/metric"
)

// timedSpace is the metric-layer probe of the traced run: a metric.Space
// decorator handed to netsim.New that, while timing is on, counts every
// Distance call and accumulates the time spent inside the wrapped space.
// It forwards Regions, so region-diverse replica placement and the
// locality paths see exactly the labelling of the bare space; the decorator
// changes no behaviour (checked by the traced/untraced count agreement and
// by TestTimedSpaceNeutral).
type timedSpace struct {
	inner  metric.Space
	timing atomic.Bool
	calls  atomic.Int64
	ns     atomic.Int64
}

func newTimedSpace(inner metric.Space) *timedSpace { return &timedSpace{inner: inner} }

func (s *timedSpace) Size() int      { return s.inner.Size() }
func (s *timedSpace) Name() string   { return s.inner.Name() }
func (s *timedSpace) Regions() []int { return metric.Regions(s.inner) }

func (s *timedSpace) Distance(i, j int) float64 {
	if !s.timing.Load() {
		return s.inner.Distance(i, j)
	}
	t0 := time.Now()
	d := s.inner.Distance(i, j)
	s.ns.Add(int64(time.Since(t0)))
	s.calls.Add(1)
	return d
}

// distanceProbe is a snapshot of the decorator's counters.
type distanceProbe struct{ calls, ns int64 }

func (s *timedSpace) snapshot() distanceProbe {
	if s == nil {
		return distanceProbe{}
	}
	return distanceProbe{s.calls.Load(), s.ns.Load()}
}

func (p distanceProbe) sub(q distanceProbe) distanceProbe {
	return distanceProbe{p.calls - q.calls, p.ns - q.ns}
}

// rowCacheStats reads the row-cache counters of an on-demand graph metric;
// other metric representations have no row cache and report zeros.
func rowCacheStats(s metric.Space) (hits, misses, evictions int64) {
	if t, ok := s.(*timedSpace); ok {
		s = t.inner
	}
	if g, ok := s.(*metric.GraphSpace); ok {
		return g.CacheStats()
	}
	return 0, 0, 0
}

// spanName identifies the benchmark-side call a span wraps.
type spanName uint8

const (
	spLocate spanName = iota
	spPublish
	spJoin
	spFail
	spSweep
	spRepublish
	spEpoch
	spEventRun
	spVirtualLocate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spLocate:    "core.Node.Locate",
	spPublish:   "core.Node.Publish",
	spJoin:      "core.Mesh.Join",
	spFail:      "core.Mesh.Fail",
	spSweep:     "core.Mesh.SweepDeadAll",
	spRepublish: "core.Mesh.RunMaintenanceEpoch",
	spEpoch:     "churn.epoch",
	spEventRun:  "netsim.Engine.Run",
	// Under the engine a locate's wall span includes the time it is parked
	// while other operations run.
	spVirtualLocate: "core.Node.Locate (event run)",
}

// span is one recorded call: times are nanoseconds since the tracer's
// epoch, parent indexes the same lane (-1 for none), and op groups the
// spans of one operation.
type span struct {
	name       spanName
	parent     int32
	op         int64
	start, end int64
}

// keptPerLane bounds the spans each lane retains for the dump; every span,
// kept or not, still feeds the lane's per-name totals.
const keptPerLane = 1 << 15

// lane is one goroutine's span recorder. A nil lane records nothing, which
// is how the untraced run calls the same code.
type lane struct {
	epoch   time.Time
	spans   []span
	count   [numSpanNames]int64
	total   [numSpanNames]int64
	dropped int64
}

// tracer owns the lanes of one traced run.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane returns a fresh recorder; nil on a nil tracer.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{epoch: t.epoch, spans: make([]span, 0, keptPerLane)}
	t.lanes = append(t.lanes, l)
	return l
}

// open starts a span and returns its handle; close it with end.
func (l *lane) open(name spanName, op int64, parent int32) spanHandle {
	if l == nil {
		return spanHandle{idx: -1}
	}
	h := spanHandle{name: name, idx: -1, start: time.Since(l.epoch).Nanoseconds()}
	if len(l.spans) < cap(l.spans) {
		h.idx = int32(len(l.spans))
		l.spans = append(l.spans, span{name: name, parent: parent, op: op, start: h.start})
	} else {
		l.dropped++
	}
	return h
}

// end closes the span opened as h.
func (l *lane) end(h spanHandle) {
	if l == nil {
		return
	}
	end := time.Since(l.epoch).Nanoseconds()
	l.count[h.name]++
	l.total[h.name] += end - h.start
	if h.idx >= 0 {
		l.spans[h.idx].end = end
	}
}

// add records a span whose endpoints the caller already measured.
func (l *lane) add(name spanName, op int64, parent int32, t0, t1 time.Time) {
	if l == nil {
		return
	}
	start, end := t0.Sub(l.epoch).Nanoseconds(), t1.Sub(l.epoch).Nanoseconds()
	l.count[name]++
	l.total[name] += end - start
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{name: name, parent: parent, op: op, start: start, end: end})
	} else {
		l.dropped++
	}
}

type spanHandle struct {
	name  spanName
	idx   int32
	start int64
}

// meanNs is the mean duration of the named span over every lane, 0 when
// none was recorded.
func (t *tracer) meanNs(name spanName) float64 {
	var count, total int64
	for _, l := range t.lanes {
		count += l.count[name]
		total += l.total[name]
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) (kept, dropped int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type row struct {
		Lane    int    `json:"lane"`
		Name    string `json:"name"`
		Op      int64  `json:"op"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for li, l := range t.lanes {
		dropped += l.dropped
		for _, s := range l.spans {
			kept++
			if err := enc.Encode(row{li, spanNames[s.name], s.op, s.parent, s.start, s.end}); err != nil {
				f.Close()
				return 0, 0, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("close %s: %w", path, err)
	}
	return kept, dropped, nil
}

func (p distanceProbe) add(q distanceProbe) distanceProbe {
	return distanceProbe{p.calls + q.calls, p.ns + q.ns}
}
