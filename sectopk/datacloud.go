package sectopk

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/join"
	"repro/internal/mutate"
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
// relations and open Sessions. All methods are safe for concurrent use.
// TCP connections carry the multiplexed framing, so concurrent sessions
// keep many calls in flight on one connection; the batch scheduler
// additionally coalesces their calls into batch envelopes — one round
// trip for many calls — flushed on size, on a ~1ms tick, or immediately
// while the link is idle (so a lone session pays no added latency).
type DataCloud struct {
	cfg    config
	ledger *cloud.Ledger
	stats  *transport.Stats

	// admit is the unified admission gate (WithSessionLimit): every
	// Execute — any workload, in-process or remote — claims a slot for
	// the duration of its run, and overflow sheds with ErrOverloaded.
	// nil means unbounded.
	admit *admission
	// clientGate lazily builds the remote plane's default gate when no
	// session limit was configured (see ServeClients).
	clientGateOnce sync.Once
	clientGate     *admission
	// qos is the per-tenant admission layer (WithTenantLimits). Always
	// non-nil: with no limits configured it admits everything but still
	// does deadline-aware shedding and per-tenant accounting.
	qos *qos.Limiter

	mu        sync.Mutex
	caller    transport.Caller     // what hosted clients issue rounds on
	conn      transport.ConnCaller // owning handle for a network transport
	batcher   *cloud.Batcher       // wraps the transport; what caller points at
	relations map[string]*hostedRelation
	joins     map[string]*hostedJoin
	knns      map[string]*hostedKNN
	// shardHosts are the cluster-member subsets (HostShards); cluster is
	// the front-door placement (HostCluster); handoffs counts in-flight
	// HostShards replacements for readiness reporting.
	shardHosts map[string]*hostedShards
	cluster    *hostedCluster
	handoffs   int
	closed     bool

	// Drain state (WithDrainTimeout): once draining, new executes shed
	// with ErrOverloaded while the inflight ones run to completion;
	// drainDone is closed when the last one finishes.
	draining  bool
	inflight  int
	drainDone chan struct{}
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

// snapshot returns the consistent view one query executes against.
func (h *hostedRelation) snapshot() (*shard.Engine, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.engine, h.state.Epoch
}

// apply lands one delta (exactly once) and returns the resulting epoch.
// threshold > 0 folds tombstones in the same transition once the dead
// count reaches it.
func (h *hostedRelation) apply(d *mutate.Delta, threshold int) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d.ID != "" {
		if epoch, done := h.applied[d.ID]; done {
			return epoch, nil
		}
	}
	next, err := h.state.Apply(d)
	if err != nil {
		return 0, err
	}
	if threshold > 0 && next.DeadRows() >= threshold {
		next = next.Compact()
	}
	if err := h.swapLocked(next); err != nil {
		return 0, err
	}
	if d.ID != "" {
		h.applied[d.ID] = next.Epoch
	}
	return next.Epoch, nil
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
	sh, err := shard.New(next.LiveShards())
	if err != nil {
		return err
	}
	engine, err := shard.NewEngine(h.client, sh)
	if err != nil {
		return err
	}
	h.state = next
	h.engine = engine
	h.er = &EncryptedRelation{sh: sh, pk: h.er.pk, mst: next}
	return nil
}

// hostedJoin is one join-relation pair this data cloud serves joins for.
type hostedJoin struct {
	client *cloud.Client
	engine *join.Engine
	er1    *EncryptedJoinRelation
	er2    *EncryptedJoinRelation
}

// NewDataCloud builds an unconnected data cloud. Options configure the
// S1-side worker pools and nonce paths.
func NewDataCloud(opts ...Option) *DataCloud {
	cfg := buildConfig(opts)
	var admit *admission
	if cfg.sessionLimit > 0 {
		admit = &admission{slots: make(chan struct{}, cfg.sessionLimit), shed: true}
	}
	return &DataCloud{
		cfg:        cfg,
		ledger:     cloud.NewLedger(),
		stats:      transport.NewStats(),
		admit:      admit,
		qos:        qos.NewLimiter(cfg.tenantLimits),
		relations:  map[string]*hostedRelation{},
		joins:      map[string]*hostedJoin{},
		knns:       map[string]*hostedKNN{},
		shardHosts: map[string]*hostedShards{},
	}
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

// handshake runs the Hello round over the connected transport via the
// shared cloud-layer implementation.
func (d *DataCloud) handshake(ctx context.Context, relation string) error {
	return cloud.Handshake(ctx, d.caller, relation)
}

// ConnectLocal wires this data cloud to a CryptoCloud in the same
// process (gob-serializing both directions, so byte accounting matches
// the TCP wire exactly) and runs the version handshake.
func (d *DataCloud) ConnectLocal(ctx context.Context, cc *CryptoCloud) error {
	if cc == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: nil crypto cloud")
	}
	caller := transport.NewLocal(cc.responder(), d.stats)
	if err := d.setCaller(caller, nil); err != nil {
		return err
	}
	if err := d.handshake(ctx, ""); err != nil {
		d.unsetCaller()
		return err
	}
	return nil
}

// Connect wires this data cloud to a CryptoCloud over an established
// connection: the preface opens the frame-ID multiplexed framing, then
// the version handshake runs. The connection is closed by Close.
func (d *DataCloud) Connect(ctx context.Context, conn net.Conn) error {
	nc, err := transport.Connect(ctx, conn, d.stats)
	if err != nil {
		return err
	}
	if err := d.setCaller(nc, nc); err != nil {
		nc.Close()
		return err
	}
	if err := d.handshake(ctx, ""); err != nil {
		d.unsetCaller()
		return err
	}
	return nil
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

// Host registers an encrypted relation under id: it confirms (via a
// Hello round) that the connected crypto cloud serves the relation, then
// builds the S1 query engine for it. Hosting an ID twice fails with
// ErrRelationExists; an unregistered relation fails with
// ErrUnknownRelation.
func (d *DataCloud) Host(ctx context.Context, id string, er *EncryptedRelation) error {
	if id == "" || er == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: missing relation id or relation")
	}
	caller, err := d.connectedCaller()
	if err != nil {
		return err
	}
	d.mu.Lock()
	_, taken := d.relations[id]
	_, takenJoin := d.joins[id]
	d.mu.Unlock()
	if taken || takenJoin {
		return secerr.New(secerr.CodeRelationExists, "sectopk: relation %q already hosted", id)
	}
	client, err := cloud.NewClient(caller, er.pk, d.ledger, append(d.cfg.cloudOptions(), cloud.WithRelation(id))...)
	if err != nil {
		return err
	}
	if err := client.Handshake(ctx); err != nil {
		client.Close()
		return err
	}
	engine, err := shard.NewEngine(client, er.sh)
	if err != nil {
		client.Close()
		return err
	}
	// Materialize the mutable state the mutation plane versions: either
	// the epoch-stamped state the relation was loaded with, or a fresh
	// epoch-1 wrapping of the shards.
	state, err := er.mutableState()
	if err != nil {
		client.Close()
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.hostableLocked(id); err != nil {
		client.Close()
		return err
	}
	d.relations[id] = &hostedRelation{
		client: client, state: state, engine: engine, er: er,
		applied: map[string]uint64{},
	}
	return nil
}

// Apply lands one owner-produced mutation delta on a hosted top-k
// relation and returns the resulting epoch (BaseEpoch+1, or one more
// when WithCompactThreshold folded tombstones in the same transition —
// the owner's Adopt handles both). Application is atomic and
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

// applyDelta is the internal Apply entry point (shared with the client
// wire, which decodes straight to the internal delta type).
func (d *DataCloud) applyDelta(ctx context.Context, relation string, delta *mutate.Delta) (uint64, error) {
	// Application is local to S1 (no protocol rounds), so cancellation
	// only gates entry: once started, a delta lands atomically.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := d.clusterMutable(relation); err != nil {
		return 0, err
	}
	if err := d.beginExecute(); err != nil {
		return 0, err
	}
	defer d.endExecute()
	rel, err := d.hostedTopK(relation)
	if err != nil {
		return 0, err
	}
	ins, del := delta.Rows()
	epoch, err := rel.apply(delta, d.cfg.compactGoal)
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
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := d.clusterMutable(relation); err != nil {
		return 0, err
	}
	if err := d.beginExecute(); err != nil {
		return 0, err
	}
	defer d.endExecute()
	rel, err := d.hostedTopK(relation)
	if err != nil {
		return 0, err
	}
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
	if cl := d.clusterView(); cl != nil {
		if cc := cl.coords[relation]; cc != nil {
			return cc.coord.Epoch(), nil
		}
	}
	rel, err := d.hostedTopK(relation)
	if err != nil {
		return 0, err
	}
	_, epoch := rel.snapshot()
	return epoch, nil
}

// hostableLocked re-checks (under d.mu) that the data cloud is still
// open and the ID is free in EVERY workload registry — concurrent Host,
// HostJoin, and HostKNN calls for the same ID must not all succeed.
func (d *DataCloud) hostableLocked(id string) error {
	if d.closed {
		return secerr.New(secerr.CodeInternal, "sectopk: data cloud is closed")
	}
	if d.relations[id] != nil || d.joins[id] != nil || d.knns[id] != nil || d.shardHosts[id] != nil {
		return secerr.New(secerr.CodeRelationExists, "sectopk: relation %q already hosted", id)
	}
	if cl := d.cluster; cl != nil && (cl.coords[id] != nil || cl.routes[id] != nil) {
		return secerr.New(secerr.CodeRelationExists, "sectopk: relation %q already cluster-hosted", id)
	}
	return nil
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
	caller, err := d.connectedCaller()
	if err != nil {
		return err
	}
	d.mu.Lock()
	_, taken := d.relations[id]
	_, takenJoin := d.joins[id]
	d.mu.Unlock()
	if taken || takenJoin {
		return secerr.New(secerr.CodeRelationExists, "sectopk: relation %q already hosted", id)
	}
	client, err := cloud.NewClient(caller, er1.pk, d.ledger, append(d.cfg.cloudOptions(), cloud.WithRelation(id))...)
	if err != nil {
		return err
	}
	if err := client.Handshake(ctx); err != nil {
		client.Close()
		return err
	}
	engine, err := join.NewEngine(client, er1.er, er2.er, er1.maxScoreBits)
	if err != nil {
		client.Close()
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.hostableLocked(id); err != nil {
		client.Close()
		return err
	}
	d.joins[id] = &hostedJoin{client: client, engine: engine, er1: er1, er2: er2}
	return nil
}

// Hosted lists the hosted relation IDs (top-k, join, kNN, cluster-member
// shard subsets, and front-door cluster relations), unsorted.
func (d *DataCloud) Hosted() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.relations)+len(d.joins)+len(d.knns)+len(d.shardHosts))
	for id := range d.relations {
		out = append(out, id)
	}
	for id := range d.joins {
		out = append(out, id)
	}
	for id := range d.knns {
		out = append(out, id)
	}
	for id := range d.shardHosts {
		out = append(out, id)
	}
	if d.cluster != nil {
		for id := range d.cluster.coords {
			out = append(out, id)
		}
		for id := range d.cluster.routes {
			out = append(out, id)
		}
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
	rels := d.relations
	joins := d.joins
	knns := d.knns
	shardHosts := d.shardHosts
	clu := d.cluster
	conn := d.conn
	batcher := d.batcher
	d.relations = map[string]*hostedRelation{}
	d.joins = map[string]*hostedJoin{}
	d.knns = map[string]*hostedKNN{}
	d.shardHosts = map[string]*hostedShards{}
	d.cluster = nil
	d.caller = nil
	d.conn = nil
	d.batcher = nil
	d.closed = true
	d.mu.Unlock()
	for _, r := range rels {
		r.client.Close()
	}
	for _, j := range joins {
		j.client.Close()
	}
	for _, k := range knns {
		k.client.Close()
	}
	for _, hs := range shardHosts {
		hs.client.Close()
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

// Session is one top-k query's lifecycle: built from a token, executed
// against the crypto cloud, yielding an encrypted result the client
// reveals with the owner's keys. It is a thin wrapper over
// DataCloud.Execute that adds eager validation and result retention.
type Session struct {
	dc       *DataCloud
	relation string
	tk       *Token
	cfg      queryConfig

	mu      sync.Mutex
	res     *EncryptedResult
	traffic Traffic
}

// NewSession validates the token against the hosted relation and
// prepares a query session. Unknown relation IDs fail with
// ErrUnknownRelation; invalid tokens with ErrInvalidToken.
func (d *DataCloud) NewSession(relation string, tk *Token, opts ...QueryOption) (*Session, error) {
	if tk == nil {
		return nil, secerr.New(secerr.CodeInvalidToken, "sectopk: nil token")
	}
	if cl := d.clusterView(); cl != nil {
		if cc := cl.coords[relation]; cc != nil {
			if err := cc.coord.ValidateToken(tk.tk); err != nil {
				return nil, err
			}
			return &Session{dc: d, relation: relation, tk: tk, cfg: buildQueryConfig(opts)}, nil
		}
	}
	rel, err := d.hostedTopK(relation)
	if err != nil {
		return nil, err
	}
	engine, _ := rel.snapshot()
	if err := engine.ValidateToken(tk.tk); err != nil {
		return nil, err
	}
	return &Session{dc: d, relation: relation, tk: tk, cfg: buildQueryConfig(opts)}, nil
}

// Execute runs the query (SecQuery, Algorithm 3). Cancellation via ctx
// is cooperative and bounded by one protocol round. The result is also
// retained on the session (Result).
func (s *Session) Execute(ctx context.Context) (*EncryptedResult, error) {
	ans, err := s.dc.execute(ctx, Request{Relation: s.relation, TopK: s.tk}, s.cfg, s.dc.admit)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.res = ans.TopK
	s.traffic = ans.Traffic
	s.mu.Unlock()
	return ans.TopK, nil
}

// Result returns the last Execute outcome (nil before the first).
func (s *Session) Result() *EncryptedResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res
}

// Traffic returns the rounds/bytes of the last Execute. With concurrent
// sessions on one connection the numbers are approximate (the link is
// shared).
func (s *Session) Traffic() Traffic {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traffic
}

// JoinSession is one top-k equi-join's lifecycle — a thin wrapper over
// DataCloud.Execute.
type JoinSession struct {
	dc       *DataCloud
	relation string
	tk       *JoinToken
	cfg      queryConfig

	mu      sync.Mutex
	res     *EncryptedJoinResult
	traffic Traffic
}

// NewJoinSession prepares a join session over a hosted join pair.
func (d *DataCloud) NewJoinSession(relation string, tk *JoinToken, opts ...QueryOption) (*JoinSession, error) {
	if tk == nil {
		return nil, secerr.New(secerr.CodeInvalidToken, "sectopk: nil join token")
	}
	if _, err := d.hostedJoinRelation(relation); err != nil {
		return nil, err
	}
	return &JoinSession{dc: d, relation: relation, tk: tk, cfg: buildQueryConfig(opts)}, nil
}

// Execute runs the oblivious nested-loop equi-join (SecJoin, Algorithm
// 11) followed by SecFilter and top-k selection.
func (s *JoinSession) Execute(ctx context.Context) (*EncryptedJoinResult, error) {
	ans, err := s.dc.execute(ctx, Request{Relation: s.relation, Join: s.tk}, s.cfg, s.dc.admit)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.res = ans.Join
	s.traffic = ans.Traffic
	s.mu.Unlock()
	return ans.Join, nil
}

// Result returns the last Execute outcome (nil before the first).
func (s *JoinSession) Result() *EncryptedJoinResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res
}

// Traffic returns the rounds/bytes of the last Execute.
func (s *JoinSession) Traffic() Traffic {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traffic
}

// SessionPool executes requests over one hosted relation with bounded
// concurrency: each Execute claims a slot, runs through the unified
// DataCloud.Execute path, and releases the slot. Admission is uniform
// across workloads — a pool over a join or kNN relation bounds those
// queries exactly like a top-k pool does. On a multiplexed connection
// the concurrent requests' protocol rounds genuinely overlap (and the
// batch scheduler coalesces them into shared envelopes), which is what
// turns S2's idle cores into throughput. Safe for concurrent use from
// any number of goroutines.
type SessionPool struct {
	dc       *DataCloud
	relation string
	sem      chan struct{}
}

// NewSessionPool prepares a pool over a hosted relation of any workload
// (top-k, join, or kNN). maxConcurrent bounds the simultaneously
// executing requests (<= 0 picks GOMAXPROCS). Unknown relations fail
// with ErrUnknownRelation.
func (d *DataCloud) NewSessionPool(relation string, maxConcurrent int) (*SessionPool, error) {
	d.mu.Lock()
	ok := d.relations[relation] != nil || d.joins[relation] != nil || d.knns[relation] != nil
	if cl := d.cluster; !ok && cl != nil {
		ok = cl.coords[relation] != nil || cl.routes[relation] != nil
	}
	d.mu.Unlock()
	if !ok {
		return nil, secerr.New(secerr.CodeUnknownRelation, "sectopk: relation %q not hosted", relation)
	}
	if maxConcurrent <= 0 {
		maxConcurrent = runtime.GOMAXPROCS(0)
	}
	return &SessionPool{dc: d, relation: relation, sem: make(chan struct{}, maxConcurrent)}, nil
}

// ExecuteRequest runs one request of any workload through the pool: it
// blocks for a slot (or the context), then executes via the unified
// entry point. The request's Relation must be empty (the pool's
// relation fills in) or equal to the pool's relation.
func (p *SessionPool) ExecuteRequest(ctx context.Context, req Request) (*Answer, error) {
	if req.Relation == "" {
		req.Relation = p.relation
	} else if req.Relation != p.relation {
		return nil, secerr.New(secerr.CodeBadRequest,
			"sectopk: session pool serves relation %q, request names %q", p.relation, req.Relation)
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("sectopk: session pool: %w", ctx.Err())
	}
	defer func() { <-p.sem }()
	return p.dc.Execute(ctx, req)
}

// Execute runs one top-k query through the pool.
func (p *SessionPool) Execute(ctx context.Context, tk *Token, opts ...QueryOption) (*EncryptedResult, error) {
	ans, err := p.ExecuteRequest(ctx, TopKRequest("", tk, opts...))
	if err != nil {
		return nil, err
	}
	return ans.TopK, nil
}

// ExecuteJoin runs one top-k equi-join through the pool.
func (p *SessionPool) ExecuteJoin(ctx context.Context, tk *JoinToken, opts ...QueryOption) (*EncryptedJoinResult, error) {
	ans, err := p.ExecuteRequest(ctx, JoinRequest("", tk, opts...))
	if err != nil {
		return nil, err
	}
	return ans.Join, nil
}

// ExecuteKNN runs one k-nearest-neighbors query through the pool.
func (p *SessionPool) ExecuteKNN(ctx context.Context, tk *KNNToken, opts ...QueryOption) (*EncryptedKNNResult, error) {
	ans, err := p.ExecuteRequest(ctx, KNNRequest("", tk, opts...))
	if err != nil {
		return nil, err
	}
	return ans.KNN, nil
}
