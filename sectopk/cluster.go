package sectopk

import (
	"context"
	"net"
	"sort"
	"sync"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/paillier"
	"repro/internal/secerr"
	"repro/internal/shard"
	"repro/internal/transport"
)

// Scaling out. A relation's P round-robin shards need not live in one
// process: the owner cuts the encrypted relation into shares (Subset, an
// EncryptedRelation at a partial placement, saved as any other), each
// member data cloud hosts one share (HostShards + ServeCluster), and a
// front-door data cloud assembles the placement (HostCluster) and serves
// queries against it through the same Execute surface as a local
// relation. Top-k queries fan out to every member and merge under the NRA
// bound check (the front door runs the same shard.Engine as a local
// relation, with members as its sources; internal/cluster builds it);
// join and kNN relations are not shard-partitioned, so a member announces
// them whole and the front door forwards those queries to it over the
// ordinary client wire. Cluster answers are revealed-identical to a
// single node hosting everything.

// hostedView announces the entry's current state at its placement: a
// member's share at its global indices, a relation hosted whole as the
// complete subset 0..P-1, so a node hosting a whole relation can serve as
// the single-member degenerate cluster.
func (h *hostedRelation) hostedView(relation string) *cluster.Hosted {
	h.mu.Lock()
	defer h.mu.Unlock()
	total, indices := h.er.placement()
	shards := h.er.sh.Shards
	rows := make([]int, len(shards))
	for i, sh := range shards {
		rows[i] = sh.N
	}
	return &cluster.Hosted{
		Engine: h.engine,
		Info: cluster.SubsetInfo{
			Relation: relation, Total: total, Indices: indices, Rows: rows,
			M: shards[0].M, MaxScoreBits: shards[0].MaxScoreBits,
			Epoch: h.state.Epoch, PK: h.er.pk.N,
		},
	}
}

// HostShards registers a cluster member's share of a relation (cut with
// Subset) under id, making this data cloud a cluster member for it (serve
// the cluster plane with ServeCluster). Hosting an id that already serves
// a share is a shard handoff: the engine is rebuilt over the new share
// and swapped in under the entry's lock, the way Apply and Compact swap
// epochs — in-flight candidate scans finish on the old engine. The
// rebuild runs no cryptography and no S2 round. The replacement must be
// encrypted under the same key material.
func (d *DataCloud) HostShards(ctx context.Context, id string, er *EncryptedRelation) error {
	if h, _ := d.lookup(id); h != nil && er != nil {
		if rel, ok := h.(*hostedRelation); ok && rel.share {
			return rel.handoff(id, er)
		}
	}
	return d.hostTopK(ctx, id, er, true)
}

// handoff swaps a member's share for its replacement.
func (h *hostedRelation) handoff(id string, er *EncryptedRelation) error {
	next, err := er.mutableState()
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.er.pk.N.Cmp(er.pk.N) != 0 {
		return secerr.New(secerr.CodeBadRequest,
			"sectopk: handoff subset for %q is encrypted under different key material", id)
	}
	if err := h.swapLocked(next); err != nil {
		return err
	}
	h.er.total, h.er.indices = er.total, er.indices
	return nil
}

// MemberID returns this node's cluster identity (WithMemberID; empty
// when unset — the front door then identifies the member by address).
func (d *DataCloud) MemberID() string { return d.cfg.memberID }

// HostedShardSubsets reports the shard subsets this member serves:
// relation id to the hosted global shard indices.
func (d *DataCloud) HostedShardSubsets() map[string][]int {
	out := map[string][]int{}
	for id, h := range d.entries() {
		if rel, ok := h.(*hostedRelation); ok && rel.share {
			rel.mu.Lock()
			_, indices := rel.er.placement()
			out[id] = append([]int(nil), indices...)
			rel.mu.Unlock()
		}
	}
	return out
}

// clusterInventory adapts the data cloud's registry to the member-side
// cluster plane: shard subsets (and fully hosted relations, announced as
// complete subsets) fan in to the coordinator's merge; join and kNN
// relations announce as whole-relation routes.
type clusterInventory struct{ d *DataCloud }

func (v *clusterInventory) Member() string { return v.d.cfg.memberID }

// announce returns the cluster-plane view of an entry that fans in to a
// coordinator's merge, nil for every other kind.
func announce(relation string, h hosted) *cluster.Hosted {
	if rel, ok := h.(*hostedRelation); ok {
		return rel.hostedView(relation)
	}
	return nil
}

func (v *clusterInventory) Subsets() []*cluster.Hosted {
	var out []*cluster.Hosted
	for id, h := range v.d.entries() {
		if view := announce(id, h); view != nil {
			out = append(out, view)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Relation < out[j].Info.Relation })
	return out
}

func (v *clusterInventory) Subset(relation string) (*cluster.Hosted, bool) {
	h, err := v.d.lookup(relation)
	if err != nil {
		return nil, false
	}
	view := announce(relation, h)
	return view, view != nil
}

func (v *clusterInventory) Routes() []cluster.RouteInfo {
	var out []cluster.RouteInfo
	for id, h := range v.d.entries() {
		switch h.(type) {
		case *hostedJoin, *hostedKNN:
			_, w := h.kind()
			out = append(out, cluster.RouteInfo{Relation: id, Workload: string(w)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Relation < out[j].Relation })
	return out
}

// Begin brackets one candidate execution into the same drain accounting
// and admission gate remote client queries run under, so a member's
// concurrency bound holds whether load arrives from queriers or from a
// front door.
func (v *clusterInventory) Begin(ctx context.Context) (func(), error) {
	d := v.d
	if err := d.beginExecute(); err != nil {
		return nil, err
	}
	if err := d.clientGate.acquire(ctx); err != nil {
		d.endExecute()
		return nil, err
	}
	return func() {
		d.clientGate.release()
		d.endExecute()
	}, nil
}

// clusterResponder serves the cluster plane and falls through to the
// client plane, so one member listener answers coordinators (Hello,
// Candidates) and forwarded whole-relation queries (Client.Execute)
// alike.
type clusterResponder struct {
	inv    *clusterInventory
	client *clientResponder
}

func (r *clusterResponder) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	out, handled, err := cluster.Respond(ctx, r.inv, method, body)
	if handled {
		return out, err
	}
	return r.client.Serve(ctx, method, body)
}

// ServeCluster accepts cluster-plane connections on the listener: a
// front door's coordinator fan-outs, plus ordinary client-wire requests
// it forwards for whole-relation workloads. Admission, drain, and error
// semantics match ServeClients.
func (d *DataCloud) ServeCluster(ctx context.Context, l net.Listener) error {
	inv := &clusterInventory{d: d}
	return transport.ServeWith(ctx, l, nil, transport.ServeOptions{
		Drain: d.cfg.drainTimeout,
		// Per connection, as on ServeClients: the client-plane half holds
		// the tenant its connection's Hello announced.
		NewResponder: func() transport.Responder {
			return &clusterResponder{inv: inv, client: &clientResponder{dc: d}}
		},
	})
}

// clusterNode is one dialed member of the hosted cluster.
type clusterNode struct {
	addr   string
	member string
	conn   *transport.ReconnectCaller
}

// clusterCoord is one relation's assembled placement: the sharded engine
// whose sources are the members, over the front door's own S2 client
// (the merge rounds run on it), pinned to the placement's epoch. The
// (engine, epoch) pair moves when the members do (refresh).
type clusterCoord struct {
	relation string
	nodes    []*clusterNode
	client   *cloud.Client

	mu     sync.Mutex
	engine *shard.Engine
	epoch  uint64
}

func (cc *clusterCoord) kind() (string, Workload) {
	return "cluster-coordinated relation", WorkloadTopK
}

func (cc *clusterCoord) close() { cc.client.Close() }

// current returns the placement one query executes against.
func (cc *clusterCoord) current() (*shard.Engine, uint64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.engine, cc.epoch
}

// execute fans the query out to every member and merges under the NRA
// bound check. Every candidate request carries the placement's epoch and
// members refuse any other, so the front-door pin check mirrors the
// local-snapshot one. A member refusing the pin as stale, or a query
// pinned past the placement, means the members have moved on: the
// placement is re-assembled from their Hellos and the query retried once.
func (cc *clusterCoord) execute(ctx context.Context, req Request, cfg queryConfig) (*Answer, error) {
	engine, epoch := cc.current()
	if cfg.epoch <= epoch {
		ans, err := executeTopK(ctx, engine, epoch, req, cfg)
		if secerr.CodeOf(err) != secerr.CodeRelationStale || cfg.epoch != 0 && cfg.epoch < epoch {
			return ans, err
		}
	}
	engine, epoch, err := cc.refresh(ctx)
	if err != nil {
		return nil, err
	}
	return executeTopK(ctx, engine, epoch, req, cfg)
}

// refresh re-runs the cluster Hello on the existing member links and
// swaps in the placement they now announce. It runs no cryptography and
// no S2 round. A placement that does not assemble — members still at
// mixed epochs, or shares that no longer tile — fails typed stale; one
// under another key fails bad_request.
func (cc *clusterCoord) refresh(ctx context.Context) (*shard.Engine, uint64, error) {
	var ms []cluster.Contribution
	for _, n := range cc.nodes {
		rep, err := clusterHello(ctx, n.conn)
		if err != nil {
			return nil, 0, secerr.Wrap(secerr.CodeUnavailable, err, "sectopk: cluster member %s unreachable", n.member)
		}
		for _, info := range rep.Subsets {
			if info.Relation == cc.relation {
				ms = append(ms, cluster.Contribution{Member: n.member, Caller: n.conn, Info: info})
			}
		}
	}
	engine, err := cluster.NewCoordinator(cc.client, cc.relation, ms)
	if err != nil {
		return nil, 0, secerr.Wrap(secerr.CodeRelationStale, err, "sectopk: re-assembling relation %q", cc.relation)
	}
	if ms[0].Info.PK.Cmp(cc.client.PK().N) != 0 {
		return nil, 0, secerr.New(secerr.CodeBadRequest,
			"sectopk: members of relation %q now announce key material other than the placement's", cc.relation)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.engine, cc.epoch = engine, ms[0].Info.Epoch
	return engine, cc.epoch, nil
}

// clusterRoute is one whole-relation workload forwarded to the member
// hosting it. The member connection belongs to the hostedCluster.
type clusterRoute struct {
	workload Workload
	member   string
	node     *clusterNode
}

func (rt *clusterRoute) kind() (string, Workload) { return "cluster-routed relation", rt.workload }

func (rt *clusterRoute) close() {}

// execute ships a whole-relation query to the member hosting it over the
// client wire and decodes the answer, so forwarded queries keep the exact
// error taxonomy and result encoding of direct ones.
func (rt *clusterRoute) execute(ctx context.Context, req Request, cfg queryConfig) (*Answer, error) {
	token, err := encodeWireToken(req, rt.workload)
	if err != nil {
		return nil, err
	}
	wreq := clientExecuteRequest{
		Relation: req.Relation,
		Workload: string(rt.workload),
		Token:    token,
		Options:  cfg.wire(),
	}
	var rep clientExecuteReply
	if err := rt.node.conn.Call(ctx, methodClientExecute, wreq, &rep); err != nil {
		if secerr.CodeOf(err) == secerr.CodeTransport {
			return nil, secerr.Wrap(secerr.CodeUnavailable, err, "sectopk: cluster member %s unreachable", rt.member)
		}
		return nil, err
	}
	ans, err := decodeWireAnswer(rt.workload, rep.Answer)
	if err != nil {
		return nil, err
	}
	// Carry the member's fan-out and epoch through the front door; the
	// rounds, bytes and S2 calls reported are the front door's own.
	ans.Traffic.FanOut = rep.FanOut
	ans.Traffic.Epoch = rep.Epoch
	return ans, nil
}

// hostedCluster is the front door's member fleet: the connections its
// registered clusterCoords fan out on and its clusterRoutes forward on.
type hostedCluster struct {
	nodes []*clusterNode
}

func (cl *hostedCluster) close() {
	for _, n := range cl.nodes {
		n.conn.Close()
	}
}

// clusterHello runs the cluster Hello and returns the member's inventory.
func clusterHello(ctx context.Context, caller transport.Caller) (*cluster.HelloReply, error) {
	var rep cluster.HelloReply
	if err := caller.Call(ctx, cluster.MethodHello, cluster.HelloRequest{}, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// HostCluster makes this data cloud the front door of a member fleet: it
// dials each node's cluster listener through the self-healing transport
// (re-dialed under WithRetry's policy after a link failure, with the
// cluster Hello re-run on every fresh link; a query in flight on a lost
// link fails typed unavailable), learns the members' inventories from
// their Hellos, validates that every announced shard subset tiles its
// relation exactly, and registers a coordinator per sharded relation
// plus a forwarding route per whole-hosted join/kNN relation. The data
// cloud must already be connected to the crypto cloud — the merge rounds
// run on its own S2 link. Queries then flow through the ordinary Execute
// surface; cluster-hosted relations are read-only here (mutate at the
// owner and hand the members shares cut at the new epoch: the front door
// follows them at the next query). One cluster per data cloud; a second
// HostCluster fails typed.
func (d *DataCloud) HostCluster(ctx context.Context, nodes []string) error {
	if len(nodes) == 0 {
		return secerr.New(secerr.CodeBadRequest, "sectopk: cluster has no member nodes")
	}
	if _, err := d.connectedCaller(); err != nil {
		return err
	}
	// entries is what gets registered: routes as the members announce
	// them, coordinators as they are prepared. ids names every relation
	// the fleet announced, known once the member Hellos are in.
	cl := &hostedCluster{}
	entries := map[string]hosted{}
	var ids []string
	fail := func(err error) error {
		for _, h := range entries {
			h.close()
		}
		cl.close()
		return err
	}
	// registrable reports whether the cluster slot and every announced id
	// are free. It runs three times: before dialing (slot only), after the
	// Hellos — so a taken id costs no S2 round — and under the storing lock.
	registrableLocked := func() error {
		if d.cluster != nil {
			return secerr.New(secerr.CodeRelationExists, "sectopk: a cluster is already hosted")
		}
		for _, rel := range ids {
			if err := d.hostableLocked(rel); err != nil {
				return err
			}
		}
		return nil
	}
	registrable := func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		return registrableLocked()
	}
	if err := registrable(); err != nil {
		return err
	}
	contribs := map[string][]cluster.Contribution{}
	for _, addr := range nodes {
		// The member link re-dials itself after a link failure, like the
		// crypto-cloud link, and runs the cluster Hello on every fresh
		// link; the first Hello's inventory assembles the placement.
		var rep *cluster.HelloReply
		link := transport.NewReconnectCaller(transport.ReconnectConfig{
			Dial: func(ctx context.Context) (transport.ConnCaller, error) {
				return dialMux(ctx, addr, d.stats, "cluster member "+addr)
			},
			OnConnect: func(ctx context.Context, c transport.Caller) (err error) {
				rep, err = clusterHello(ctx, c)
				return err
			},
			Policy: d.cfg.retry.backoff(),
		})
		node := &clusterNode{addr: addr, conn: link}
		cl.nodes = append(cl.nodes, node)
		if err := link.Connect(ctx); err != nil {
			code := secerr.CodeOf(err)
			if code == secerr.CodeTransport {
				code = secerr.CodeUnavailable
			}
			return fail(secerr.Wrap(code, err, "sectopk: cluster member %s", addr))
		}
		node.member = rep.Member
		if node.member == "" {
			node.member = addr
		}
		for _, info := range rep.Subsets {
			contribs[info.Relation] = append(contribs[info.Relation],
				cluster.Contribution{Member: node.member, Caller: link, Info: info})
		}
		for _, rt := range rep.Routes {
			if prev, ok := entries[rt.Relation].(*clusterRoute); ok {
				return fail(secerr.New(secerr.CodeBadRequest,
					"sectopk: relation %q hosted whole by both %s and %s", rt.Relation, prev.member, node.member))
			}
			entries[rt.Relation] = &clusterRoute{workload: Workload(rt.Workload), member: node.member, node: node}
			ids = append(ids, rt.Relation)
		}
	}
	for rel := range contribs {
		if rt, ok := entries[rel].(*clusterRoute); ok {
			return fail(secerr.New(secerr.CodeBadRequest,
				"sectopk: relation %q announced both sharded and whole (member %s)", rel, rt.member))
		}
		ids = append(ids, rel)
	}
	if err := registrable(); err != nil {
		return fail(err)
	}
	for rel, ms := range contribs {
		pk, err := paillier.NewPublicKeyFromN(ms[0].Info.PK)
		if err != nil {
			return fail(secerr.Wrap(secerr.CodeBadRequest, err,
				"sectopk: member %s announced relation %q with bad key material", ms[0].Member, rel))
		}
		h, err := d.prepare(ctx, rel, pk, func(client *cloud.Client) (hosted, error) {
			engine, err := cluster.NewCoordinator(client, rel, ms)
			if err != nil {
				return nil, err
			}
			return &clusterCoord{relation: rel, nodes: cl.nodes, client: client, engine: engine, epoch: ms[0].Info.Epoch}, nil
		})
		if err != nil {
			return fail(err)
		}
		entries[rel] = h
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := registrableLocked(); err != nil {
		return fail(err)
	}
	for rel, h := range entries {
		d.hosted[rel] = h
	}
	d.cluster = cl
	return nil
}

// clusterView snapshots the hosted cluster (nil when none).
func (d *DataCloud) clusterView() *hostedCluster {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cluster
}

// ClusterNodes returns the member addresses of the hosted cluster (nil
// when this data cloud is not a front door).
func (d *DataCloud) ClusterNodes() []string {
	cl := d.clusterView()
	if cl == nil {
		return nil
	}
	out := make([]string, len(cl.nodes))
	for i, n := range cl.nodes {
		out[i] = n.addr
	}
	return out
}

// ClusterRelations returns the relation ids served through the cluster,
// sorted.
func (d *DataCloud) ClusterRelations() []string {
	var out []string
	for id, h := range d.entries() {
		switch h.(type) {
		case *clusterCoord, *clusterRoute:
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ClusterReachable pings every cluster member (a Hello round each) and
// returns a typed unavailable error naming the first member that does
// not answer. Readiness probes report coordinator reachability with it.
func (d *DataCloud) ClusterReachable(ctx context.Context) error {
	cl := d.clusterView()
	if cl == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: no cluster hosted")
	}
	for _, n := range cl.nodes {
		if _, err := clusterHello(ctx, n.conn); err != nil {
			return secerr.Wrap(secerr.CodeUnavailable, err, "sectopk: cluster member %s unreachable", n.member)
		}
	}
	return nil
}
