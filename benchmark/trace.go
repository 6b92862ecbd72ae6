package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans at the two seams the benchmark wraps: the
// transport.Caller S1's protocol stub calls into (one "s1.<Method>" span
// per logical S2 call) and the transport.Responder S2 serves (one
// "s2.<Method>" span per call, child of the s1 span that caused it).
// Every query is one root span; all spans of a query share its id. Spans
// stay in memory and are written out when the run ends.

// span is one timed interval. Times are microseconds since the tracer
// was created.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Query   int64   `json:"query"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUs - s.StartUs) / 1000 }

const (
	spanRoot    = "core.query"
	spanS1Call  = "s1."
	spanS2Serve = "s2."
)

type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// calls maps a request body's fingerprint to the s1 span that sent it,
	// so the responder side can attach its span to the right query without
	// anything extra crossing the wire.
	calls     sync.Map // uint64 -> callRef
	unmatched atomic.Int64
}

type callRef struct{ query, span int64 }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type rootKey struct{}

// rootSpan is one query's root; end closes it.
type rootSpan struct {
	t     *tracer
	id    int64
	name  string
	start float64
}

// begin opens a root span and returns a context that carries it down to
// the caller seam.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *rootSpan) {
	r := &rootSpan{t: t, id: t.nextID.Add(1), name: name, start: t.now()}
	return context.WithValue(ctx, rootKey{}, r), r
}

func (r *rootSpan) end() {
	r.t.record(span{ID: r.id, Query: r.id, Name: r.name, StartUs: r.start, EndUs: r.t.now()})
}

// rootOf returns the query a context belongs to (0 outside any query,
// e.g. handshakes).
func rootOf(ctx context.Context) int64 {
	if r, ok := ctx.Value(rootKey{}).(*rootSpan); ok {
		return r.id
	}
	return 0
}

// querySummary is one traced query split by layer.
type querySummary struct {
	name   string
	wallMs float64
	// selfMs is the root span minus the union of its s1 call intervals:
	// time S1 spent computing with no S2 call outstanding.
	selfMs float64
	// s2Ms and wireMs are summed over calls (S1 issues calls in parallel,
	// so they can overlap): time inside S2's handlers, and the rest of each
	// call's span — encoding, batcher queue, mux, TCP, injected delay.
	s2Ms, wireMs float64
	calls        map[string]int
	s2MsByMethod map[string]float64
}

// summaries splits by layer every recorded query that began at or after
// sinceUs on the tracer's clock.
func (t *tracer) summaries(sinceUs float64) []querySummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	s2ByParent := make(map[int64]span)
	byQuery := make(map[int64][]span)
	var roots []span
	for _, s := range spans {
		switch {
		case s.ID == s.Query:
			if s.StartUs >= sinceUs {
				roots = append(roots, s)
			}
		case strings.HasPrefix(s.Name, spanS2Serve):
			s2ByParent[s.Parent] = s
		case strings.HasPrefix(s.Name, spanS1Call):
			byQuery[s.Query] = append(byQuery[s.Query], s)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].StartUs < roots[b].StartUs })
	out := make([]querySummary, 0, len(roots))
	for _, r := range roots {
		q := querySummary{name: r.Name, wallMs: r.ms(), calls: map[string]int{}, s2MsByMethod: map[string]float64{}}
		calls := byQuery[r.ID]
		sort.Slice(calls, func(a, b int) bool { return calls[a].StartUs < calls[b].StartUs })
		var covered, coverEnd float64
		for _, c := range calls {
			method := strings.TrimPrefix(c.Name, spanS1Call)
			q.calls[method]++
			if s2, ok := s2ByParent[c.ID]; ok {
				q.s2Ms += s2.ms()
				q.s2MsByMethod[method] += s2.ms()
				q.wireMs += c.ms() - s2.ms()
			} else {
				q.wireMs += c.ms()
			}
			start, end := c.StartUs, c.EndUs
			if start < coverEnd {
				start = coverEnd
			}
			if end > start {
				covered += end - start
				coverEnd = end
			}
		}
		q.selfMs = q.wallMs - covered/1000
		out = append(out, q)
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].StartUs < spans[b].StartUs })
	return writeJSON(path, struct {
		Spans []span `json:"spans"`
	}{spans})
}
