package sectopk

import (
	"time"

	"repro/internal/qos"
	"repro/internal/secerr"
	"repro/internal/telemetry"
)

// DefaultTenant is the admission bucket unidentified callers land in:
// in-process callers and clients that never set WithTenant.
const DefaultTenant = qos.DefaultTenant

// Rate is one tenant's admission budget: a sustained request rate plus
// a burst allowance. Burst <= 0 defaults to max(1, ceil(PerSecond)).
type Rate struct {
	PerSecond float64
	Burst     int
}

// WithTenantLimits configures a DataCloud's per-tenant QoS admission:
// requests from a tenant named in the map draw from that tenant's token
// bucket and SHED with ErrOverloaded when it is empty — immediately,
// never queued — while tenants outside the map stay unlimited (the
// session-limit gate below this layer still bounds them). The map key
// "" configures DefaultTenant, which is where in-process callers and
// clients that never set WithTenant land. Admission is also
// deadline-aware regardless of limits: a request whose context deadline
// has passed, or whose remaining budget is under the observed service
// latency, sheds with context.DeadlineExceeded instead of burning a
// slot on an answer nobody can receive. Per-tenant admit/shed counts
// surface in /metrics (sectopk_tenant_admitted_total,
// sectopk_tenant_shed_total).
func WithTenantLimits(limits map[string]Rate) Option {
	return func(c *config) {
		c.tenantLimits = make(map[string]qos.Rate, len(limits))
		for tenant, r := range limits {
			c.tenantLimits[tenant] = qos.Rate{PerSecond: r.PerSecond, Burst: r.Burst}
		}
	}
}

// WithTenant names the tenant a Client identifies as in its Hello. The
// server buckets the connection's requests under that name for QoS
// admission and telemetry. Unset, the connection lands in
// DefaultTenant. Client-side option; DataCloud ignores it.
func WithTenant(name string) Option {
	return func(c *config) { c.tenant = name }
}

// QuerySpan is one executed request's trace record: what the serving
// plane observed between admission and answer. Spans are emitted for
// every execution through the unified path — in-process Execute,
// sessions, pools, and remote clients — including failed and shed ones
// (Code then carries the secerr code).
type QuerySpan struct {
	Relation string
	Workload Workload
	// Tenant is the admission bucket the request ran under (never "";
	// unidentified callers report DefaultTenant).
	Tenant string
	// Traffic carries the span counters: rounds, bytes, S2 calls,
	// fan-out width, merge-bound fallbacks, and the answered epoch.
	Traffic Traffic
	// Code is the secerr code string of the failure, "" on success.
	Code    string
	Elapsed time.Duration
}

// TraceSink receives one QuerySpan per executed request. Implementations
// must be safe for concurrent use and must not block: spans are emitted
// on the serving hot path.
type TraceSink interface {
	Span(QuerySpan)
}

// TraceSinkFunc adapts a plain function to a TraceSink.
type TraceSinkFunc func(QuerySpan)

// Span implements TraceSink.
func (f TraceSinkFunc) Span(s QuerySpan) { f(s) }

// WithTraceSink subscribes a sink to every query span this DataCloud
// emits. The sink sees exactly the spans the telemetry plane records
// into /metrics, one per execution, after the request finishes (or
// sheds). DataCloud option; the other roles ignore it.
func WithTraceSink(s TraceSink) Option {
	return func(c *config) { c.traceSink = s }
}

// emitSpan records one execution's span into the telemetry plane and
// fans it out to the configured sink.
func (d *DataCloud) emitSpan(w Workload, relation, tenant string, ans *Answer, err error, elapsed time.Duration) {
	code := ""
	if err != nil {
		code = string(secerr.CodeOf(err))
	}
	var tr Traffic
	if ans != nil {
		tr = ans.Traffic
	}
	tenant = qos.Canonical(tenant)
	telemetry.EmitSpan(telemetry.QuerySpan{
		Relation:       relation,
		Workload:       string(w),
		Tenant:         tenant,
		Rounds:         tr.Rounds,
		Bytes:          tr.Bytes,
		S2Calls:        tr.S2Calls,
		MergeFallbacks: tr.MergeFallbacks,
		Epoch:          tr.Epoch,
		Code:           code,
		Elapsed:        elapsed,
	})
	if s := d.cfg.traceSink; s != nil {
		s.Span(QuerySpan{
			Relation: relation, Workload: w, Tenant: tenant,
			Traffic: tr, Code: code, Elapsed: elapsed,
		})
	}
}
