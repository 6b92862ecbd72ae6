// Package qos is the serving plane's per-tenant admission layer:
// token-bucket rate limiting with deadline-aware shedding, layered on
// top of the data cloud's session-limit gate. A request that is over
// its tenant's budget — or whose deadline cannot be met — is SHED with
// a typed error instead of queued: under sustained overload the server
// stays at its configured concurrency and callers get an immediate,
// retryable signal (the client plane's backoff honors it) rather than
// an unbounded queue of doomed work.
package qos

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/secerr"
	"repro/internal/telemetry"
)

// DefaultTenant is the bucket unidentified callers land in: in-process
// callers and clients that never set WithTenant.
const DefaultTenant = "default"

// Rate is one tenant's admission budget: a sustained request rate plus
// a burst allowance. Burst <= 0 defaults to max(1, ceil(PerSecond)).
type Rate struct {
	PerSecond float64
	Burst     int
}

// burst resolves the effective bucket capacity.
func (r Rate) burst() float64 {
	if r.Burst > 0 {
		return float64(r.Burst)
	}
	return math.Max(1, math.Ceil(r.PerSecond))
}

// bucket is one tenant's token bucket.
type bucket struct {
	rate   Rate
	tokens float64
	last   time.Time
}

// ewmaWeight is the exponential moving average factor for observed
// service latency: small enough to smooth over stragglers, large
// enough to track a shifting workload within tens of requests.
const ewmaWeight = 0.1

// Limiter admits requests per tenant. Tenants without a configured
// Rate are admitted unconditionally (the session-limit gate below this
// layer still bounds them); configured tenants draw from their bucket
// and shed typed ErrOverloaded when it is empty. All methods are safe
// for concurrent use.
type Limiter struct {
	mu      sync.Mutex
	limits  map[string]Rate
	buckets map[string]*bucket
	ewma    time.Duration // observed service latency, 0 until warmed
	now     func() time.Time
}

// NewLimiter builds a limiter over the given per-tenant budgets (which
// may be nil or empty: every request is then admitted and only
// counted). The map key "" configures the default tenant.
func NewLimiter(limits map[string]Rate) *Limiter {
	l := &Limiter{
		limits:  make(map[string]Rate, len(limits)),
		buckets: map[string]*bucket{},
		now:     time.Now,
	}
	for tenant, r := range limits {
		l.limits[Canonical(tenant)] = r
	}
	return l
}

// Canonical maps the empty tenant name to DefaultTenant.
func Canonical(tenant string) string {
	if tenant == "" {
		return DefaultTenant
	}
	return tenant
}

// Admit decides one request: nil admits it, a typed error sheds it.
// Sheds never queue — the decision is immediate.
//
// Deadline-aware scheduling: a context whose deadline has passed, or
// whose remaining budget is shorter than the observed (EWMA) service
// latency, sheds with context.DeadlineExceeded — executing it would
// only burn a concurrency slot on an answer nobody can receive. An
// over-budget tenant sheds with the typed overloaded error
// (sectopk.ErrOverloaded across the facade and the wire).
func (l *Limiter) Admit(ctx context.Context, tenant string) error {
	tenant = Canonical(tenant)
	if dl, ok := ctx.Deadline(); ok {
		l.mu.Lock()
		ewma := l.ewma
		now := l.now()
		l.mu.Unlock()
		remaining := dl.Sub(now)
		if remaining <= 0 {
			l.count(tenant, "shed", "deadline")
			return fmt.Errorf("qos: tenant %q deadline already passed: %w", tenant, context.DeadlineExceeded)
		}
		if ewma > 0 && remaining < ewma {
			l.count(tenant, "shed", "deadline")
			return fmt.Errorf("qos: tenant %q deadline %s away, under the %s observed service time: %w",
				tenant, remaining.Round(time.Millisecond), ewma.Round(time.Millisecond), context.DeadlineExceeded)
		}
	}
	l.mu.Lock()
	rate, limited := l.limits[tenant]
	if !limited {
		l.mu.Unlock()
		l.count(tenant, "admit", "")
		return nil
	}
	b := l.buckets[tenant]
	now := l.now()
	if b == nil {
		b = &bucket{rate: rate, tokens: rate.burst(), last: now}
		l.buckets[tenant] = b
	}
	b.tokens = math.Min(b.rate.burst(), b.tokens+now.Sub(b.last).Seconds()*b.rate.PerSecond)
	b.last = now
	if b.tokens < 1 {
		l.mu.Unlock()
		l.count(tenant, "shed", "rate")
		return secerr.New(secerr.CodeOverloaded,
			"qos: tenant %q over its %.3g/s admission budget (burst %g), request shed",
			tenant, rate.PerSecond, rate.burst())
	}
	b.tokens--
	l.mu.Unlock()
	l.count(tenant, "admit", "")
	return nil
}

// Observe feeds one completed request's service latency into the EWMA
// the deadline-aware shed consults.
func (l *Limiter) Observe(d time.Duration) {
	if d <= 0 {
		return
	}
	l.mu.Lock()
	if l.ewma == 0 {
		l.ewma = d
	} else {
		l.ewma = time.Duration((1-ewmaWeight)*float64(l.ewma) + ewmaWeight*float64(d))
	}
	l.mu.Unlock()
}

// count records the admission decision in the default registry.
func (l *Limiter) count(tenant, verdict, reason string) {
	r := telemetry.Default()
	if verdict == "admit" {
		r.Counter("sectopk_tenant_admitted_total", "tenant", tenant).Inc()
		return
	}
	r.Counter("sectopk_tenant_shed_total", "tenant", tenant, "reason", reason).Inc()
}
