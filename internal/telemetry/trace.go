package telemetry

import "time"

// FrameEvent is one transport-mux frame observation: emitted by the
// caller side when a reply (or failure) resolves a frame, and by the
// serving side when a handler finishes. Bytes counts the method, body,
// and reply payload attributable to the frame.
type FrameEvent struct {
	Side    string // "caller" or "server"
	Method  string
	Bytes   int
	Code    string // secerr code; "" on success
	Elapsed time.Duration
}

// QuerySpan is one executed request's span record: what the serving
// plane observed between admission and answer. Approximate fields
// (Rounds, Bytes, S2Calls) are measured as deltas on shared connection
// counters, matching the Answer.Traffic convention; MergeFallbacks is
// the query's own rescan count.
type QuerySpan struct {
	Relation       string
	Workload       string
	Tenant         string
	Rounds         int64
	Bytes          int64
	S2Calls        int64
	MergeFallbacks int64
	Epoch          uint64
	Code           string // secerr code; "" on success
	Elapsed        time.Duration
}

// EmitFrame records a frame event into the default registry's mux
// metrics.
func EmitFrame(ev FrameEvent) {
	r := defaultRegistry
	r.Counter("sectopk_mux_frames_total", "side", ev.Side, "method", ev.Method).Inc()
	r.Counter("sectopk_mux_frame_bytes_total", "side", ev.Side, "method", ev.Method).Add(int64(ev.Bytes))
	if ev.Code != "" {
		r.Counter("sectopk_mux_frame_errors_total", "side", ev.Side, "code", ev.Code).Inc()
	}
	r.Histogram("sectopk_mux_frame_seconds", nil, "side", ev.Side).ObserveDuration(ev.Elapsed)
}

// EmitSpan records a query span into the default registry's query
// metrics.
func EmitSpan(sp QuerySpan) {
	r := defaultRegistry
	code := sp.Code
	if code == "" {
		code = "ok"
	}
	tenant := sp.Tenant
	if tenant == "" {
		tenant = "default"
	}
	r.Counter("sectopk_queries_total", "workload", sp.Workload, "tenant", tenant, "code", code).Inc()
	r.Histogram("sectopk_query_seconds", nil, "workload", sp.Workload).ObserveDuration(sp.Elapsed)
	r.Counter("sectopk_query_rounds_total", "workload", sp.Workload).Add(sp.Rounds)
	r.Counter("sectopk_query_bytes_total", "workload", sp.Workload).Add(sp.Bytes)
	r.Counter("sectopk_query_s2_calls_total", "workload", sp.Workload).Add(sp.S2Calls)
	r.Counter("sectopk_query_merge_fallbacks_total", "workload", sp.Workload).Add(sp.MergeFallbacks)
	if sp.Relation != "" && sp.Epoch > 0 {
		r.Gauge("sectopk_relation_epoch", "relation", sp.Relation).Set(float64(sp.Epoch))
	}
}
