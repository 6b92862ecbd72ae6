package sectopk

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
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
// Connect it exactly once (ConnectLocal, Connect, or Dial), then Host
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
	caller  transport.Caller     // what hosted clients issue rounds on
	conn    transport.ConnCaller // owning handle for a network transport
	batcher *cloud.Batcher       // wraps the transport; what caller points at
	// hosted is the one registry: every hosted id, whatever its kind,
	// lives here, so the id namespace is shared by construction.
	hosted map[string]hosted
	// cluster holds the front door's member connections (HostCluster);
	// handoffs counts in-flight HostShards replacements for readiness
	// reporting.
	cluster  *hostedCluster
	handoffs int
	closed   bool

	// Drain state (WithDrainTimeout): once draining, new executes shed
	// with ErrOverloaded while the inflight ones run to completion;
	// drainDone is closed when the last one finishes.
	draining  bool
	inflight  int
	drainDone chan struct{}
}

// hosted is one entry of the DataCloud's registry: something an id names
// and a request can be aimed at. Six kinds implement it — *hostedRelation
// (Host), *hostedJoin (HostJoin), *hostedKNN (HostKNN), *hostedShards
// (HostShards), and the front door's *clusterCoord and *clusterRoute
// (HostCluster).
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
}

func (h *hostedRelation) kind() (string, Workload) { return "top-k relation", WorkloadTopK }

func (h *hostedRelation) close() { h.client.Close() }

// snapshot returns the consistent view one query executes against.
func (h *hostedRelation) snapshot() (*shard.Engine, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.engine, h.state.Epoch
}

// execute runs SecQuery start-to-finish on one immutable snapshot: a
// concurrent Apply/Compact swaps the hosted engine but never this one.
func (h *hostedRelation) execute(ctx context.Context, req Request, cfg queryConfig) (*Answer, error) {
	engine, epoch := h.snapshot()
	return executeTopK(ctx, engine, epoch, req, cfg)
}

// executeTopK answers a top-k request on an engine that answers over one
// epoch — a local relation's snapshot or a front door's placement. An
// epoch pin (WithEpoch) fences version skew at entry; after that, the
// engine IS the pinned epoch. FanOut is the engine's source count:
// shards locally, members at a front door.
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
	sh, engine, err := shardEngine(h.client, next.LiveShards())
	if err != nil {
		return err
	}
	h.state = next
	h.engine = engine
	h.er = &EncryptedRelation{sh: sh, pk: h.er.pk, mst: next}
	return nil
}

// shardEngine assembles per-shard relations into one sharded relation and
// builds the query engine over it on the given S2 client.
func shardEngine(client *cloud.Client, shards []*core.EncryptedRelation) (*shard.Relation, *shard.Engine, error) {
	sh, err := shard.New(shards)
	if err != nil {
		return nil, nil, err
	}
	engine, err := shard.NewEngine(client, sh)
	return sh, engine, err
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
// caller the hosted clients see.
func (d *DataCloud) setCaller(raw transport.Caller, conn transport.ConnCaller) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return secerr.New(secerr.CodeInternal, "sectopk: data cloud is closed")
	}
	if d.caller != nil {
		return secerr.New(secerr.CodeInternal, "sectopk: data cloud already connected")
	}
	caller := raw
	if d.cfg.retry != nil {
		// Round-retry sits below the batcher: a retried round is the
		// actual wire envelope, re-issued only per the retryability table.
		caller = cloud.NewRetryCaller(caller, d.cfg.retryPolicy())
	}
	d.batcher = cloud.NewBatcher(caller)
	d.caller = d.batcher
	d.conn = conn
	return nil
}

// unsetCaller uninstalls a transport whose handshake failed, so the data
// cloud can retry connecting instead of being wedged on a dead link. The
// discarded connection is closed first (stopping its reader goroutine
// and unblocking any in-flight envelope), then the batcher drains.
func (d *DataCloud) unsetCaller() {
	d.mu.Lock()
	batcher := d.batcher
	conn := d.conn
	d.caller = nil
	d.conn = nil
	d.batcher = nil
	d.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if batcher != nil {
		batcher.Close()
	}
}

// connect installs a transport and runs the version handshake over it;
// on failure the link is closed and the data cloud stays unconnected.
func (d *DataCloud) connect(ctx context.Context, raw transport.Caller, conn transport.ConnCaller) error {
	if err := d.setCaller(raw, conn); err != nil {
		if conn != nil {
			conn.Close()
		}
		return err
	}
	caller, err := d.connectedCaller()
	if err == nil {
		err = cloud.Handshake(ctx, caller, "")
	}
	if err != nil {
		d.unsetCaller()
	}
	return err
}

// ConnectLocal wires this data cloud to a CryptoCloud in the same
// process (every message still goes through the wire codec in both
// directions, so byte accounting matches what the same call costs on a
// TCP connection, frame IDs and length prefixes aside) and runs the
// version handshake.
func (d *DataCloud) ConnectLocal(ctx context.Context, cc *CryptoCloud) error {
	if cc == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: nil crypto cloud")
	}
	return d.connect(ctx, transport.NewLocal(cc.responder(), d.stats), nil)
}

// Connect wires this data cloud to a CryptoCloud over an established
// connection: the preface opens the frame-ID multiplexed framing, then
// the version handshake runs. The connection is closed by Close.
func (d *DataCloud) Connect(ctx context.Context, conn net.Conn) error {
	nc, err := transport.Connect(ctx, conn, d.stats)
	if err != nil {
		return err
	}
	return d.connect(ctx, nc, nc)
}

// Dial connects to a CryptoCloud serving at addr (TCP) and runs the
// version handshake.
func (d *DataCloud) Dial(ctx context.Context, addr string) error {
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return secerr.Wrap(secerr.CodeTransport, err, "sectopk: dialing crypto cloud")
	}
	if err := d.Connect(ctx, conn); err != nil {
		conn.Close()
		return err
	}
	return nil
}

// DialRetry connects to a CryptoCloud at addr through the self-healing
// transport: the link is (re-)dialed on demand under the configured
// retry policy (WithRetry; package defaults otherwise), and every
// reconnect re-runs the version handshake plus one Hello per hosted
// relation before any round travels. A round that was in flight when
// the link died still fails — re-issuing rounds is the round-retry
// layer's job (WithRetry), which composes on top of this transport.
func (d *DataCloud) DialRetry(ctx context.Context, addr string) error {
	rc := transport.NewReconnectCaller(transport.ReconnectConfig{
		Dial: func(ctx context.Context) (transport.ConnCaller, error) {
			var dialer net.Dialer
			conn, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, secerr.Wrap(secerr.CodeTransport, err, "sectopk: dialing crypto cloud")
			}
			nc, err := transport.Connect(ctx, conn, d.stats)
			if err != nil {
				conn.Close()
				return nil, err
			}
			return nc, nil
		},
		OnConnect: func(ctx context.Context, c transport.Caller) error {
			if err := cloud.Handshake(ctx, c, ""); err != nil {
				return err
			}
			// Re-prove every hosted relation on the fresh link, so a
			// crypto cloud that restarted without its registrations is
			// caught at reconnect time, not mid-query.
			for _, id := range d.Hosted() {
				if err := cloud.Handshake(ctx, c, id); err != nil {
					return err
				}
			}
			return nil
		},
		Policy: d.cfg.retryPolicy(),
	})
	// Eager first dial (the version handshake rides OnConnect): fail
	// DialRetry after the policy's attempts rather than the first query
	// when the crypto cloud is unreachable.
	if err := rc.Connect(ctx); err != nil {
		rc.Close()
		return err
	}
	if err := d.setCaller(rc, rc); err != nil {
		rc.Close()
		return err
	}
	return nil
}

// Connected reports whether the data cloud holds a usable transport: it
// is wired up (ConnectLocal, Connect, Dial, or DialRetry), not closed,
// and — on a self-healing transport — the link is currently established
// rather than awaiting a re-dial.
func (d *DataCloud) Connected() bool {
	d.mu.Lock()
	caller := d.caller
	conn := d.conn
	closed := d.closed
	d.mu.Unlock()
	if closed || caller == nil {
		return false
	}
	if rc, ok := conn.(*transport.ReconnectCaller); ok {
		return rc.Connected()
	}
	return true
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
	client, err := cloud.NewClient(caller, pk, d.ledger, append(d.cfg.cloudOptions(), cloud.WithRelation(id))...)
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
// ErrUnknownRelation.
func (d *DataCloud) Host(ctx context.Context, id string, er *EncryptedRelation) error {
	if id == "" || er == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: missing relation id or relation")
	}
	return d.host(ctx, id, er.pk, func(client *cloud.Client) (hosted, error) {
		engine, err := shard.NewEngine(client, er.sh)
		if err != nil {
			return nil, err
		}
		// Materialize the mutable state the mutation plane versions: either
		// the epoch-stamped state the relation was loaded with, or a fresh
		// epoch-1 wrapping of the shards.
		state, err := er.mutableState()
		if err != nil {
			return nil, err
		}
		return &hostedRelation{
			client: client, state: state, engine: engine, er: er,
			applied: map[string]uint64{},
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
// door is read-only — owners mutate the source relation and re-provision
// the member subsets, then re-assemble the placement. Mutations are local
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
			return h, nil
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
// cluster-hosted relation, the epoch the placement is pinned to).
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
		return h.epoch, nil
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

// LeakageEvents returns everything this cloud could observe beyond the
// declared ciphertexts (query pattern, halting depth, uniqueness
// patterns) as human-readable strings.
func (d *DataCloud) LeakageEvents() []string {
	events := d.ledger.Events()
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.String()
	}
	return out
}

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
	conn := d.conn
	batcher := d.batcher
	d.hosted = map[string]hosted{}
	d.cluster = nil
	d.caller = nil
	d.conn = nil
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
	if conn != nil {
		conn.Close()
	}
	if batcher != nil {
		batcher.Close()
	}
}
