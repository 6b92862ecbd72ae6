package sectopk

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/join"
	"repro/internal/mutate"
	"repro/internal/paillier"
	"repro/internal/qos"
	"repro/internal/secerr"
	"repro/internal/shard"
	"repro/internal/transport"
)

// admission is one concurrency gate for DataCloud.execute. slots bounds
// the simultaneously executing requests (nil = unbounded); shed selects
// the overflow behavior — true fails a request arriving with every slot
// taken immediately with ErrOverloaded, false queues it until a slot
// frees or the context ends.
type admission struct {
	slots chan struct{}
	shed  bool
}

// acquire claims a slot (or returns a typed error); release must be
// called iff acquire returned nil.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil || a.slots == nil {
		return nil
	}
	if a.shed {
		select {
		case a.slots <- struct{}{}:
			return nil
		default:
			return secerr.New(secerr.CodeOverloaded,
				"sectopk: session limit %d reached, request shed", cap(a.slots))
		}
	}
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sectopk: awaiting admission: %w", ctx.Err())
	}
}

func (a *admission) release() {
	if a != nil && a.slots != nil {
		<-a.slots
	}
}

// DataCloud is the data cloud role (S1): it hosts encrypted relations
// and executes queries by driving blinded protocol rounds against a
// CryptoCloud over its connected transport. It holds only public
// material — encrypted relations, public keys, and its own ephemeral
// blinding keys.
//
// Connect it exactly once (ConnectLocal or Dial), then Host
// relations and Execute requests against them. All methods are safe for
// concurrent use. TCP connections carry the multiplexed framing, so
// concurrent queries keep many calls in flight on one connection; the
// batch scheduler additionally coalesces their calls into batch envelopes
// — one round trip for many calls — flushed on size, on a ~1ms tick, or
// immediately while the link is idle (so a lone query pays no added
// latency).
type DataCloud struct {
	cfg    config
	ledger *cloud.Ledger
	stats  *transport.Stats

	// admit is the unified admission gate (WithSessionLimit): every
	// Execute — any workload, in-process or remote — claims a slot for
	// the duration of its run, and overflow sheds with ErrOverloaded.
	// nil means unbounded.
	admit *admission
	// clientGate is what the remote planes (ServeClients, ServeCluster)
	// admit under: admit when a session limit is set, else a
	// GOMAXPROCS-sized queueing gate, so an open listener never admits
	// unbounded concurrent work.
	clientGate *admission
	// qos is the per-tenant admission layer (WithTenantLimits). Always
	// non-nil: with no limits configured it admits everything but still
	// does deadline-aware shedding and per-tenant accounting.
	qos *qos.Limiter

	mu      sync.Mutex
	caller  transport.Caller           // what hosted clients issue rounds on
	link    *transport.ReconnectCaller // the TCP link (Dial); nil in process
	batcher *cloud.Batcher             // wraps the transport; what caller points at
	// hosted is the one registry: every hosted id, whatever its kind,
	// lives here, so the id namespace is shared by construction.
	hosted map[string]hosted
	// cluster holds the front door's member connections (HostCluster).
	cluster *hostedCluster
	closed  bool

	// Drain state (WithDrainTimeout): once draining, new executes shed
	// with ErrOverloaded while the inflight ones run to completion;
	// drainDone is closed when the last one finishes.
	draining  bool
	inflight  int
	drainDone chan struct{}
}

// hosted is one entry of the DataCloud's registry: something an id names
// and a request can be aimed at. Five kinds implement it — *hostedRelation
// (Host, and a cluster member's share through HostShards), *hostedJoin
// (HostJoin), *hostedKNN (HostKNN), and the front door's *clusterCoord and
// *clusterRoute (HostCluster).
type hosted interface {
	// kind names the entry for error messages and reports the one
	// workload its execute answers.
	kind() (name string, serves Workload)
	// execute answers one admitted request of the served workload. It
	// runs outside d.mu and fills the answer's workload field plus the
	// FanOut/Epoch span fields; the caller adds the traffic deltas.
	execute(ctx context.Context, req Request, cfg queryConfig) (*Answer, error)
	// close releases what the entry owns (its S2 client and pools).
	close()
}

// mismatch is the typed refusal for an id that is hosted, but not as
// what the caller needs.
func mismatch(relation string, h hosted, want Workload) error {
	name, serves := h.kind()
	return secerr.New(secerr.CodeUnknownRelation,
		"sectopk: relation %q is hosted as a %s for %s queries, not %s", relation, name, serves, want)
}

// hostedRelation is one relation this data cloud serves queries for. The
// engine is the sharded one; an unsharded relation is its P = 1 case
// (which executes exactly the single core engine).
//
// Hosted state is versioned: queries take an immutable (engine, epoch)
// snapshot and run on it start to finish, while Apply/Compact build the
// next epoch copy-on-write and swap it in under mu. An in-flight query
// therefore always answers over exactly one epoch — the one it pinned
// (WithEpoch) or whatever was current when it started — and a pinned
// query that arrives after the relation moved fails ErrRelationStale.
//
// A cluster member's share (HostShards) is the same entry at a partial
// placement. It is served only on the cluster plane: execute, Apply and
// Compact refuse it, and a handoff swaps it through swapLocked.
type hostedRelation struct {
	client *cloud.Client

	mu     sync.Mutex
	state  *mutate.Relation
	engine *shard.Engine
	er     *EncryptedRelation
	// applied records every landed delta's idempotency key and the epoch
	// its application produced, making Apply exactly-once: a retry of a
	// delta that already landed reports the recorded epoch and changes
	// nothing. (Entries live as long as the hosting; deltas are rare
	// relative to queries, so the table stays small.)
	applied map[string]uint64
	// share marks a cluster member's share (HostShards), whose placement
	// er holds; a share is a share even when it holds every shard.
	share bool
}

func (h *hostedRelation) kind() (string, Workload) {
	if h.share {
		return "shard subset", WorkloadTopK
	}
	return "top-k relation", WorkloadTopK
}

func (h *hostedRelation) close() { h.client.Close() }

// snapshot returns the consistent view one query executes against.
func (h *hostedRelation) snapshot() (*shard.Engine, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.engine, h.state.Epoch
}

// execute runs SecQuery start-to-finish on one immutable snapshot: a
// concurrent Apply/Compact swaps the hosted engine but never this one. A
// member's share refuses typed: it holds part of a relation, so a query
// answered from it alone would be wrong. Its candidates are served on the
// cluster plane (ServeCluster) to a front door, which is what to query.
func (h *hostedRelation) execute(ctx context.Context, req Request, cfg queryConfig) (*Answer, error) {
	if h.share {
		return nil, secerr.New(secerr.CodeUnknownRelation,
			"sectopk: relation %q is hosted as a shard subset, served on the cluster plane; query it through a front door",
			req.Relation)
	}
	engine, epoch := h.snapshot()
	return executeTopK(ctx, engine, epoch, req, cfg)
}

// executeTopK answers a top-k request on an engine that answers over one
// epoch — a local relation's snapshot or a front door's placement. An
// epoch pin (WithEpoch) fences version skew at entry; after that, the
// engine IS the pinned epoch. FanOut is the engine's source count:
// shards locally, members at a front door; MergeFallbacks is the
// engine's own rescan.
func executeTopK(ctx context.Context, engine *shard.Engine, epoch uint64, req Request, cfg queryConfig) (*Answer, error) {
	if err := cfg.checkEpoch(req.Relation, epoch); err != nil {
		return nil, err
	}
	res, err := engine.SecQuery(ctx, req.TopK.tk, cfg.coreOptions())
	if err != nil {
		return nil, err
	}
	ans := &Answer{TopK: &EncryptedResult{items: res.Items, Depth: res.Depth, Halted: res.Halted}}
	ans.Traffic.FanOut = engine.Shards()
	ans.Traffic.Epoch = epoch
	if res.Rescanned {
		ans.Traffic.MergeFallbacks = 1
	}
	return ans, nil
}

// apply lands one delta (exactly once) and returns the resulting epoch.
func (h *hostedRelation) apply(d *mutate.Delta) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d.ID != "" {
		if epoch, done := h.applied[d.ID]; done {
			return epoch, nil
		}
	}
	if err := fitsKey(d, h.er.pk); err != nil {
		return 0, err
	}
	next, err := h.state.Apply(d)
	if err != nil {
		return 0, err
	}
	if err := h.swapLocked(next); err != nil {
		return 0, err
	}
	if d.ID != "" {
		h.applied[d.ID] = next.Epoch
	}
	return next.Epoch, nil
}

// fitsKey refuses a delta carrying a ciphertext that is not below the
// hosted relation's N²: a delta has no key of its own, so its relation's
// bounds it.
func fitsKey(d *mutate.Delta, pk *paillier.PublicKey) error {
	for _, sd := range d.Shards {
		for _, ins := range sd.Inserts {
			for _, it := range ins.Items {
				if it.EHL == nil || it.Score == nil {
					continue // mutate refuses the incomplete item
				}
				for _, c := range append([]*paillier.Ciphertext{it.Score}, it.EHL.Cts...) {
					if c == nil || c.C == nil || c.C.Cmp(pk.N2) >= 0 {
						return secerr.New(secerr.CodeBadRequest,
							"sectopk: delta shard %d carries a ciphertext outside the relation's key", sd.Shard)
					}
				}
			}
		}
	}
	return nil
}

// compact folds the relation's tombstones and returns the new epoch.
// Compacting a relation with no dead rows still advances the epoch —
// the caller asked for a transition and gets a fenceable one.
func (h *hostedRelation) compact() (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	next := h.state.Compact()
	if err := h.swapLocked(next); err != nil {
		return 0, err
	}
	return next.Epoch, nil
}

// swapLocked (h.mu held) rebuilds the query engine over the next
// snapshot's live views and installs it. Building the engine cannot
// disturb in-flight queries: they hold the old engine, whose relations
// the copy-on-write snapshots never touch.
func (h *hostedRelation) swapLocked(next *mutate.Relation) error {
	er, err := newEncryptedRelation(next, h.er.pk, h.er.total, h.er.indices)
	if err != nil {
		return err
	}
	engine, err := shard.NewEngine(h.client, er.sh)
	if err != nil {
		return err
	}
	h.state, h.engine, h.er = next, engine, er
	return nil
}

// hostedJoin is one join-relation pair this data cloud serves joins for.
type hostedJoin struct {
	client *cloud.Client
	engine *join.Engine
}

func (h *hostedJoin) kind() (string, Workload) { return "join pair", WorkloadJoin }

func (h *hostedJoin) close() { h.client.Close() }

// execute runs the oblivious nested-loop equi-join (SecJoin, Algorithm
// 11) followed by SecFilter and top-k selection.
func (h *hostedJoin) execute(ctx context.Context, req Request, _ queryConfig) (*Answer, error) {
	tuples, err := h.engine.SecJoin(ctx, req.Join.tk)
	if err != nil {
		return nil, err
	}
	return &Answer{Join: &EncryptedJoinResult{tuples: tuples}}, nil
}

// NewDataCloud builds an unconnected data cloud. Options configure the
// S1-side worker pools and nonce paths.
func NewDataCloud(opts ...Option) *DataCloud {
	cfg := buildConfig(opts)
	d := &DataCloud{
		cfg:        cfg,
		ledger:     cloud.NewLedger(),
		stats:      transport.NewStats(),
		clientGate: &admission{slots: make(chan struct{}, runtime.GOMAXPROCS(0))},
		qos:        qos.NewLimiter(cfg.tenantLimits),
		hosted:     map[string]hosted{},
	}
	if cfg.sessionLimit > 0 {
		d.admit = &admission{slots: make(chan struct{}, cfg.sessionLimit), shed: true}
		d.clientGate = d.admit
	}
	return d
}

// setCaller installs the transport exactly once. raw is the transport
// the rounds travel on; the batch scheduler wraps it and becomes the
// caller the hosted clients see. link is the self-healing TCP link
// behind raw (Dial), nil in process (ConnectLocal).
func (d *DataCloud) setCaller(raw transport.Caller, link *transport.ReconnectCaller) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return secerr.New(secerr.CodeInternal, "sectopk: data cloud is closed")
	}
	if d.caller != nil {
		return secerr.New(secerr.CodeInternal, "sectopk: data cloud already connected")
	}
	d.batcher = cloud.NewBatcher(raw)
	d.caller = d.batcher
	d.link = link
	return nil
}

// ConnectLocal wires this data cloud to a CryptoCloud in the same
// process. Every message still goes through the wire codec in both
// directions, so byte accounting matches what the same call costs on a
// TCP connection, frame IDs and length prefixes aside; the context is
// unused, as one build has one wire version and nothing is dialed.
func (d *DataCloud) ConnectLocal(_ context.Context, cc *CryptoCloud) error {
	if cc == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: nil crypto cloud")
	}
	return d.setCaller(transport.NewLocal(cc.responder(), d.stats), nil)
}

// Dial connects to a CryptoCloud serving at addr (TCP) through the
// self-healing transport: the link is dialed (and, after a link
// failure, re-dialed on the next round) under the retry policy of
// WithRetry (package defaults otherwise). The connection preface refuses
// a crypto cloud at another wire version (ErrProtocolVersion), and every
// re-dialed link runs one Hello per hosted relation with an S2 client
// before any round travels. A round in flight when its link dies is not
// repeated: it fails its query with a typed transport error, and a
// remote client re-executes the query.
func (d *DataCloud) Dial(ctx context.Context, addr string) error {
	link := transport.NewReconnectCaller(transport.ReconnectConfig{
		Dial: func(ctx context.Context) (transport.ConnCaller, error) {
			return dialMux(ctx, addr, d.stats, "crypto cloud")
		},
		// Re-prove every relation this data cloud runs rounds for on the
		// fresh link, so a crypto cloud that restarted without its
		// registrations is caught at reconnect time, not mid-query. A
		// front door's routes forward to a member and own no S2 client:
		// the crypto cloud need not serve them.
		OnConnect: func(ctx context.Context, c transport.Caller) error {
			for id, h := range d.entries() {
				if _, route := h.(*clusterRoute); route {
					continue
				}
				if err := cloud.Handshake(ctx, c, id); err != nil {
					return err
				}
			}
			return nil
		},
		Policy: d.cfg.retry.backoff(),
	})
	// Eager first dial: fail Dial after the policy's attempts rather than
	// the first query when the crypto cloud is unreachable.
	if err := link.Connect(ctx); err != nil {
		link.Close()
		return err
	}
	if err := d.setCaller(link, link); err != nil {
		link.Close()
		return err
	}
	return nil
}

// Connected reports whether the data cloud holds a usable transport: it
// is wired up (ConnectLocal or Dial), not closed, and — over TCP — the
// link is currently established rather than awaiting a re-dial.
func (d *DataCloud) Connected() bool {
	d.mu.Lock()
	caller := d.caller
	link := d.link
	closed := d.closed
	d.mu.Unlock()
	if closed || caller == nil {
		return false
	}
	return link == nil || link.Connected()
}

// Draining reports whether the data cloud is in its drain window:
// shutdown has begun, in-flight requests are completing, and new ones
// shed with ErrOverloaded. Readiness probes should report not-ready.
func (d *DataCloud) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// beginExecute brackets one request into the drain accounting; callers
// must call endExecute iff it returned nil.
func (d *DataCloud) beginExecute() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return secerr.New(secerr.CodeInternal, "sectopk: data cloud is closed")
	}
	if d.draining {
		return secerr.New(secerr.CodeOverloaded, "sectopk: data cloud is draining, request shed")
	}
	d.inflight++
	return nil
}

func (d *DataCloud) endExecute() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inflight--
	if d.inflight == 0 && d.drainDone != nil {
		close(d.drainDone)
		d.drainDone = nil
	}
}

// connectedCaller returns the transport or a typed error.
func (d *DataCloud) connectedCaller() (transport.Caller, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, secerr.New(secerr.CodeInternal, "sectopk: data cloud is closed")
	}
	if d.caller == nil {
		return nil, secerr.New(secerr.CodeInternal, "sectopk: data cloud is not connected")
	}
	return d.caller, nil
}

// lookup resolves a hosted id of any kind.
func (d *DataCloud) lookup(relation string) (hosted, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h := d.hosted[relation]; h != nil {
		return h, nil
	}
	return nil, secerr.New(secerr.CodeUnknownRelation, "sectopk: relation %q not hosted", relation)
}

// entries snapshots the registry for callers that walk it outside d.mu.
func (d *DataCloud) entries() map[string]hosted {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]hosted, len(d.hosted))
	for id, h := range d.hosted {
		out[id] = h
	}
	return out
}

// hostableLocked checks (under d.mu) that the data cloud is still open
// and the id is free. There is one namespace: an id taken by any kind of
// hosting refuses every other.
func (d *DataCloud) hostableLocked(id string) error {
	if d.closed {
		return secerr.New(secerr.CodeInternal, "sectopk: data cloud is closed")
	}
	if h := d.hosted[id]; h != nil {
		name, _ := h.kind()
		return secerr.New(secerr.CodeRelationExists, "sectopk: relation %q already hosted as a %s", id, name)
	}
	return nil
}

// prepare builds the hosted entry for id without registering it: the id
// must be free before anything is spent on it, then an S2 client bound
// to the id proves (one Hello round) that the connected crypto cloud
// serves it, and build wraps the client in the entry. The client is
// closed on every failure path; on success the entry owns it.
func (d *DataCloud) prepare(ctx context.Context, id string, pk *paillier.PublicKey, build func(*cloud.Client) (hosted, error)) (hosted, error) {
	caller, err := d.connectedCaller()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	err = d.hostableLocked(id)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	client, err := cloud.NewClient(caller, pk, d.ledger, cloud.WithRelation(id))
	if err != nil {
		return nil, err
	}
	var h hosted
	if err = client.Handshake(ctx); err == nil {
		h, err = build(client)
	}
	if err != nil {
		client.Close()
		return nil, err
	}
	return h, nil
}

// host is the one registration path behind Host, HostJoin, HostKNN and
// HostShards: prepare the entry, then re-check the id under the lock —
// concurrent Host* calls for one id must not all succeed — and store it.
func (d *DataCloud) host(ctx context.Context, id string, pk *paillier.PublicKey, build func(*cloud.Client) (hosted, error)) error {
	h, err := d.prepare(ctx, id, pk, build)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.hostableLocked(id); err != nil {
		h.close()
		return err
	}
	d.hosted[id] = h
	return nil
}

// Host registers an encrypted relation under id: it confirms (via a
// Hello round) that the connected crypto cloud serves the relation, then
// builds the S1 query engine for it. Hosting an ID twice fails with
// ErrRelationExists; an unregistered relation fails with
// ErrUnknownRelation; a cluster member's share fails with ErrBadRequest
// (host it with HostShards).
func (d *DataCloud) Host(ctx context.Context, id string, er *EncryptedRelation) error {
	if er != nil && er.indices != nil {
		return secerr.New(secerr.CodeBadRequest,
			"sectopk: relation %q holds shards %v of %d, a cluster member's share; host it with HostShards", id, er.indices, er.total)
	}
	return d.hostTopK(ctx, id, er, false)
}

// hostTopK registers a top-k relation, whole or a member's share, under
// id with the mutable state the mutation plane versions: the
// epoch-stamped state the relation was loaded or cut with, or a fresh
// epoch-1 wrapping of its shards.
func (d *DataCloud) hostTopK(ctx context.Context, id string, er *EncryptedRelation, share bool) error {
	if id == "" || er == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: missing relation id or relation")
	}
	state, err := er.mutableState()
	if err != nil {
		return err
	}
	return d.host(ctx, id, er.pk, func(client *cloud.Client) (hosted, error) {
		engine, err := shard.NewEngine(client, er.sh)
		if err != nil {
			return nil, err
		}
		return &hostedRelation{
			client: client, state: state, engine: engine, er: er,
			applied: map[string]uint64{}, share: share,
		}, nil
	})
}

// HostJoin registers a pair of join relations under id (the ID names the
// shared key material registered on the crypto cloud). Both relations
// must come from the same JoinOwner.
func (d *DataCloud) HostJoin(ctx context.Context, id string, er1, er2 *EncryptedJoinRelation) error {
	if id == "" || er1 == nil || er2 == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: missing relation id or join relations")
	}
	if er1.pk.N.Cmp(er2.pk.N) != 0 {
		return secerr.New(secerr.CodeBadRequest, "sectopk: join relations encrypted under different keys")
	}
	return d.host(ctx, id, er1.pk, func(client *cloud.Client) (hosted, error) {
		engine, err := join.NewEngine(client, er1.er, er2.er, er1.maxScoreBits)
		if err != nil {
			return nil, err
		}
		return &hostedJoin{client: client, engine: engine}, nil
	})
}

// Apply lands one owner-produced mutation delta on a hosted top-k
// relation and returns the resulting epoch, BaseEpoch+1. Application is
// atomic and
// exactly-once: a delta that fails validation (or targets a stale
// epoch, ErrRelationStale) changes nothing, and a retry of a delta that
// already landed — same idempotency key — reports the recorded epoch
// without reapplying. Queries already executing finish on their own
// pre-Apply snapshot; Apply never makes a query wrong, only (when
// pinned with WithEpoch) stale.
//
// Join and kNN relations are encrypt-once (their ids are positional);
// Apply on one fails typed, naming the hosted kind.
func (d *DataCloud) Apply(ctx context.Context, relation string, delta *Delta) (uint64, error) {
	if delta == nil {
		return 0, secerr.New(secerr.CodeBadRequest, "sectopk: nil delta")
	}
	return d.applyDelta(ctx, relation, delta.d)
}

// mutable brackets one mutation into the drain accounting and resolves
// its target, which must be a locally hosted top-k relation. The front
// door is read-only — owners mutate the source relation and hand the
// members shares cut at the new epoch, which the front door follows at
// its next query. Mutations are local
// to S1 (no protocol rounds), so cancellation only gates entry: once
// started, one lands atomically. The caller must call endExecute iff the
// error is nil.
func (d *DataCloud) mutable(ctx context.Context, relation string) (*hostedRelation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := d.beginExecute(); err != nil {
		return nil, err
	}
	h, err := d.lookup(relation)
	if err == nil {
		switch h := h.(type) {
		case *hostedRelation:
			if !h.share {
				return h, nil
			}
			err = mismatch(relation, h, WorkloadTopK)
		case *clusterCoord, *clusterRoute:
			err = secerr.New(secerr.CodeBadRequest,
				"sectopk: relation %q is cluster-hosted and read-only at the front door; re-provision the members to mutate it", relation)
		default:
			err = mismatch(relation, h, WorkloadTopK)
		}
	}
	d.endExecute()
	return nil, err
}

// applyDelta is the internal Apply entry point (shared with the client
// wire, which decodes straight to the internal delta type).
func (d *DataCloud) applyDelta(ctx context.Context, relation string, delta *mutate.Delta) (uint64, error) {
	rel, err := d.mutable(ctx, relation)
	if err != nil {
		return 0, err
	}
	defer d.endExecute()
	ins, del := delta.Rows()
	epoch, err := rel.apply(delta)
	if err != nil {
		return 0, err
	}
	// What S1 observably learns from a delta: which shards moved, how
	// many rows appeared/disappeared, and at which list positions — but
	// never which object a ciphertext encodes. See DESIGN.md "Mutation
	// protocol" for the leakage accounting.
	d.ledger.Record("S1", "Apply", "relation %s: +%d/-%d rows across %d shards -> epoch %d",
		relation, ins, del, len(delta.Shards), epoch)
	return epoch, nil
}

// Compact folds a hosted relation's tombstones away and returns the new
// epoch. The live view is unchanged — queries keep answering
// identically — but positions shift meaning, so the epoch advances and
// in-flight deltas against the old epoch fail ErrRelationStale.
func (d *DataCloud) Compact(ctx context.Context, relation string) (uint64, error) {
	rel, err := d.mutable(ctx, relation)
	if err != nil {
		return 0, err
	}
	defer d.endExecute()
	epoch, err := rel.compact()
	if err != nil {
		return 0, err
	}
	d.ledger.Record("S1", "Compact", "relation %s compacted -> epoch %d", relation, epoch)
	return epoch, nil
}

// Epoch reports the current epoch of a hosted top-k relation (for a
// member's share, the epoch its subset was cut at; for a cluster-hosted
// relation, the epoch the placement is pinned to, which moves when a
// query finds the members at a new one).
func (d *DataCloud) Epoch(relation string) (uint64, error) {
	h, err := d.lookup(relation)
	if err != nil {
		return 0, err
	}
	switch h := h.(type) {
	case *hostedRelation:
		_, epoch := h.snapshot()
		return epoch, nil
	case *clusterCoord:
		_, epoch := h.current()
		return epoch, nil
	}
	return 0, mismatch(relation, h, WorkloadTopK)
}

// Hosted lists the hosted relation IDs (top-k, join, kNN, cluster-member
// shard subsets, and front-door cluster relations), unsorted.
func (d *DataCloud) Hosted() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.hosted))
	for id := range d.hosted {
		out = append(out, id)
	}
	return out
}

// Traffic returns the cumulative wire usage over this data cloud's
// connection.
func (d *DataCloud) Traffic() Traffic {
	return Traffic{Rounds: d.stats.Rounds(), Bytes: d.stats.Bytes()}
}

// s2Calls reads the cumulative count of protocol calls shipped to the
// crypto cloud (the batch scheduler's item counter; zero while not
// connected). Executions measure deltas of it for their span accounting.
func (d *DataCloud) s2Calls() int64 {
	d.mu.Lock()
	b := d.batcher
	d.mu.Unlock()
	if b == nil {
		return 0
	}
	return b.Items()
}

// LeakageEvents returns the newest 4096 things this cloud observed
// beyond the declared ciphertexts (query pattern, halting depth,
// uniqueness patterns) as human-readable strings, oldest first.
func (d *DataCloud) LeakageEvents() []string { return d.ledger.Strings() }

// Close releases every hosted relation's background pools and closes the
// network connection, if any. With WithDrainTimeout it is graceful:
// admission stops immediately (new requests shed with ErrOverloaded),
// requests already executing get up to the drain window to finish, and
// only then is the transport torn down — so a drained shutdown never
// turns a completing query into a transport error. Safe to call more
// than once.
func (d *DataCloud) Close() {
	d.mu.Lock()
	if !d.closed {
		d.draining = true
		if d.cfg.drainTimeout > 0 && d.inflight > 0 {
			done := make(chan struct{})
			d.drainDone = done
			d.mu.Unlock()
			timer := time.NewTimer(d.cfg.drainTimeout)
			select {
			case <-done:
			case <-timer.C:
			}
			timer.Stop()
			d.mu.Lock()
			d.drainDone = nil
		}
	}
	entries := d.hosted
	clu := d.cluster
	link := d.link
	batcher := d.batcher
	d.hosted = map[string]hosted{}
	d.cluster = nil
	d.caller = nil
	d.link = nil
	d.batcher = nil
	d.closed = true
	d.mu.Unlock()
	for _, h := range entries {
		h.close()
	}
	if clu != nil {
		clu.close()
	}
	// Close the connection before draining the batcher: in-flight
	// envelopes run under the background context, so the dying link is
	// what unblocks them — the reverse order would wait on a stalled
	// peer forever.
	if link != nil {
		link.Close()
	}
	if batcher != nil {
		batcher.Close()
	}
}
