package sectopk

import (
	"time"

	"repro/internal/backoff"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/qos"
	"repro/internal/secerr"
)

// Option configures an Owner, JoinOwner, CryptoCloud, or DataCloud at
// construction time. All roles share one option vocabulary; options that
// do not apply to a role are ignored by it (e.g. key-material options on
// a DataCloud, which never holds keys).
type Option func(*config)

type config struct {
	keyBits      int
	ehlDigests   int
	maxScoreBits int
	fastNonce    bool
	shards       int
	sessionLimit int
	retry        *RetryPolicy
	drainTimeout time.Duration
	memberID     string
	// tenant names the tenant a Client identifies as (WithTenant).
	tenant string
	// tenantLimits are a DataCloud's per-tenant QoS admission budgets
	// (WithTenantLimits); nil leaves every tenant unlimited.
	tenantLimits map[string]qos.Rate
	// traceSink receives one QuerySpan per execution (WithTraceSink).
	traceSink TraceSink
}

// retryPolicy resolves the effective backoff policy: the configured one,
// or the package defaults when retries were requested implicitly (e.g.
// DialRetry with no WithRetry option).
func (c config) retryPolicy() backoff.Policy {
	if c.retry != nil {
		return c.retry.backoff()
	}
	return backoff.Policy{}
}

func defaultConfig() config {
	p := core.DefaultParams()
	return config{
		keyBits:      p.KeyBits,
		ehlDigests:   p.EHL.S,
		maxScoreBits: p.MaxScoreBits,
		shards:       1,
	}
}

func buildConfig(opts []Option) config {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// coreParams maps the config to the owner-side scheme parameters.
func (c config) coreParams() core.Params {
	return core.Params{
		KeyBits:      c.keyBits,
		EHL:          ehl.Params{Kind: ehl.KindPlus, S: c.ehlDigests},
		MaxScoreBits: c.maxScoreBits,
		FastNonce:    c.fastNonce,
	}
}

// cloudOptions maps the config to the cloud-layer option set.
func (c config) cloudOptions() []cloud.Option {
	return []cloud.Option{
		cloud.WithFastNonce(c.fastNonce),
	}
}

// WithKeyBits sets the Paillier modulus size. The default matches the
// paper's evaluation (512); production deployments should use 2048+.
func WithKeyBits(bits int) Option {
	return func(c *config) { c.keyBits = bits }
}

// WithEHLDigests sets the EHL+ digest count s (the security/size
// trade-off of Section 6; the paper evaluates s = 5).
func WithEHLDigests(s int) Option {
	return func(c *config) { c.ehlDigests = s }
}

// WithMaxScoreBits bounds attribute magnitudes: every score must lie in
// [0, 2^bits). The bound is public schema metadata used to size
// comparison masks.
func WithMaxScoreBits(bits int) Option {
	return func(c *config) { c.maxScoreBits = bits }
}

// WithFastNonce opts into the short-exponent fixed-base nonce path for
// every encryption surface the role owns. Off by default: it rests on
// the short-exponent/subgroup assumption on top of DCR (see DESIGN.md
// "Precomputation fast paths").
func WithFastNonce(on bool) Option {
	return func(c *config) { c.fastNonce = on }
}

// WithShards partitions relations into p round-robin shards at Enc time
// (Owner option; the other roles infer the shard count from the relation
// itself). A sharded relation's query runs P per-shard sub-engines
// concurrently over shared crypto-cloud key material and merges their
// candidates with an NRA-checked encrypted selection, so multi-core
// hosts parallelize a single query across shards. p <= 1 (the default)
// keeps the relation unsharded.
func WithShards(p int) Option {
	return func(c *config) {
		if p >= 1 {
			c.shards = p
		}
	}
}

// WithSessionLimit bounds the requests a DataCloud executes
// concurrently, across every workload and both planes: DataCloud.Execute
// calls and requests admitted from remote clients (ServeClients) all
// claim one admission slot for the duration of their run. An explicit
// limit SHEDS on overflow: a request arriving with every slot taken fails
// immediately with ErrOverloaded (which also crosses the client wire
// typed, and which the retrying client plane backs off and retries)
// instead of queueing into an unbounded backlog. n <= 0 (the default)
// leaves in-process execution unbounded; the remote client plane then
// falls back to a GOMAXPROCS-sized queueing gate of its own, so an open
// listener never admits unbounded concurrent work.
func WithSessionLimit(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.sessionLimit = n
		}
	}
}

// RetryPolicy is the public face of the shared backoff schedule: capped
// exponential delays with randomized jitter, bounded by attempts and/or
// a total elapsed window. The zero value picks the package defaults
// (first retry after ~25ms, doubling to a 2s cap, 4 attempts).
type RetryPolicy struct {
	// Initial is the base delay before the first retry.
	Initial time.Duration
	// Max caps the per-retry delay after exponential growth.
	Max time.Duration
	// Factor is the growth factor between retries (default 2).
	Factor float64
	// Jitter is the randomized fraction of each delay in [0, 1]
	// (default 0.5); negative disables jitter entirely.
	Jitter float64
	// MaxAttempts bounds total tries, first call included (0 = default,
	// negative = exactly one attempt).
	MaxAttempts int
	// MaxElapsed, when positive, bounds the total retry window; with
	// MaxAttempts left 0 it becomes the only bound.
	MaxElapsed time.Duration
}

func (p RetryPolicy) backoff() backoff.Policy {
	return backoff.Policy{
		Initial: p.Initial, Max: p.Max, Factor: p.Factor, Jitter: p.Jitter,
		MaxAttempts: p.MaxAttempts, MaxElapsed: p.MaxElapsed,
	}
}

// WithRetry opts a role into recovery-by-retry under the given policy.
//
// On a DataCloud it wraps the S1→S2 transport with the round-retry
// layer: failed protocol rounds are re-issued when — and only when —
// the method is in the retryability table (every current method is: S2's
// handlers are stateless crypto transforms) and the failure was
// link-level or an overload shed. Peer-computed errors surface
// immediately. Combine with DialRetry for re-dialing too.
//
// On a querier Client (DialRetry) it sets the schedule used both for
// re-dialing the data cloud and for re-issuing failed Execute calls
// (which carry an idempotency key, so a retried query is accounted as
// one query, not a repeated pattern).
func WithRetry(p RetryPolicy) Option {
	return func(c *config) { c.retry = &p }
}

// WithMemberID names a DataCloud's cluster identity: the Member string
// it announces in cluster Hellos and reports in readiness probes.
// Unset (the default), a front door identifies the member by its dialed
// address instead.
func WithMemberID(id string) Option {
	return func(c *config) { c.memberID = id }
}

// WithDrainTimeout makes a DataCloud's shutdown graceful: Close (and a
// canceled ServeClients) stops admitting new requests immediately —
// they shed with ErrOverloaded — but lets requests already executing
// run to completion for up to d before aborting what remains. Zero (the
// default) keeps the immediate-abort behavior.
func WithDrainTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.drainTimeout = d
		}
	}
}

// Mode selects the query-processing variant (Section 11.2).
type Mode int

const (
	// ModeFull is Qry_F: fully private, SecDedup in replace mode at every
	// depth.
	ModeFull Mode = iota
	// ModeEliminate is Qry_E: duplicates are eliminated, trading the
	// uniqueness-pattern leakage for speed (Section 10.1).
	ModeEliminate
	// ModeBatched is Qry_Ba: dedup/sort/halt batched every p depths
	// (Section 10.2).
	ModeBatched
)

func (m Mode) String() string { return m.coreMode().String() }

// coreMode is a cast: the facade's modes are core's, in core's order, so
// an out-of-range value reaches core.Options.Validate as itself.
func (m Mode) coreMode() core.Mode { return core.Mode(m) }

// Halting selects the halting test.
type Halting int

const (
	// HaltingPaper is Algorithm 3 line 10 verbatim.
	HaltingPaper Halting = iota
	// HaltingStrict restores NRA's guarantee (every tracked bound and the
	// unseen-object bound must be dominated).
	HaltingStrict
)

// coreHalt is a cast, like coreMode.
func (h Halting) coreHalt() core.HaltPolicy { return core.HaltPolicy(h) }

// QueryOption configures one query execution (one Request).
type QueryOption func(*queryConfig)

type queryConfig struct {
	mode       Mode
	halt       Halting
	batchDepth int
	maxDepth   int
	// epoch, when non-zero, pins the query to one relation epoch: if a
	// concurrent Apply or Compact advanced the relation past it, the
	// query fails fast with ErrRelationStale instead of answering over a
	// state the querier did not ask about.
	epoch uint64
	// queryID is the run's idempotency key (set by the client wire, not a
	// public QueryOption): re-executions of the same logical query carry
	// the same ID so the leakage ledger counts them once.
	queryID string
	// tenant is the admission bucket the request runs under (set by the
	// client wire from the connection's announced tenant, not a public
	// QueryOption); "" is the default tenant.
	tenant string
}

func buildQueryConfig(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

func (q queryConfig) coreOptions() core.Options {
	return core.Options{
		Mode:       q.mode.coreMode(),
		Halt:       q.halt.coreHalt(),
		BatchDepth: q.batchDepth,
		MaxDepth:   q.maxDepth,
		QueryID:    q.queryID,
	}
}

// validate refuses option values outside what the QueryOption
// constructors document (core.Options.Validate, typed bad_request). An
// in-process caller reaches them with a cast; a peer on the client wire
// with any integer it likes.
func (q queryConfig) validate(req Request) error {
	k := 0
	if tk := req.TopK; tk != nil && tk.tk != nil {
		k = tk.tk.K
	}
	return q.coreOptions().Validate(k)
}

// checkEpoch enforces a WithEpoch pin against the epoch a query is about
// to answer over.
func (q queryConfig) checkEpoch(relation string, epoch uint64) error {
	if q.epoch != 0 && q.epoch != epoch {
		return secerr.New(secerr.CodeRelationStale,
			"sectopk: query pinned to epoch %d, relation %q is at epoch %d", q.epoch, relation, epoch)
	}
	return nil
}

// WithMode selects the query-processing variant.
func WithMode(m Mode) QueryOption {
	return func(c *queryConfig) { c.mode = m }
}

// WithHalting selects the halting test.
func WithHalting(h Halting) QueryOption {
	return func(c *queryConfig) { c.halt = h }
}

// WithBatchDepth sets the batching parameter p (ModeBatched only; must be
// >= k; 0 picks max(2k, 8)).
func WithBatchDepth(p int) QueryOption {
	return func(c *queryConfig) { c.batchDepth = p }
}

// WithMaxDepth caps the scan depth (0 scans to completion). A capped
// query may return an unhalted, best-effort result.
func WithMaxDepth(d int) QueryOption {
	return func(c *queryConfig) { c.maxDepth = d }
}

// WithEpoch pins the query to one relation epoch (DataCloud.Epoch or the
// epoch an Apply reported). A query whose relation has since advanced —
// a concurrent Apply or Compact landed — fails fast with
// ErrRelationStale rather than silently answering over newer data. Note
// the pin rejects only version skew visible at execution start; a query
// already executing always finishes on the consistent snapshot it
// started on, whatever mutations land meanwhile. 0 (the default) means
// "whatever is current".
func WithEpoch(epoch uint64) QueryOption {
	return func(c *queryConfig) { c.epoch = epoch }
}
