package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// service request share Req; Parent links a span to the span that caused it
// (0 for a root).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// spanRef is an open span; end closes and records it.
type spanRef struct {
	t      *tracer
	id     uint64
	parent uint64
	name   string
	req    string
	start  time.Duration
}

// start opens a span now.
func (t *tracer) start(name string, parent uint64, req string) spanRef {
	return t.startAt(name, parent, req, now())
}

// startAt opens a span whose start was observed earlier (for example a
// handler entry time read back by a hook).
func (t *tracer) startAt(name string, parent uint64, req string, at time.Duration) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.nextID.Add(1), parent: parent, name: name, req: req, start: at}
}

func (s spanRef) end() { s.endAt(now()) }

func (s spanRef) endAt(at time.Duration) {
	if s.t == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Name: s.name, Req: s.req,
		Start: s.start, End: at}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// layerRow aggregates every span of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (overlapping children are counted once), keyed by span ID.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTable aggregates spans by name, sorted by total self time.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-40s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_mean_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s %8d %12.3f %12.3f %12.4f\n", r.Name, r.Count,
			ms(r.Total), ms(r.Self), ms(r.Self)/float64(r.Count))
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
