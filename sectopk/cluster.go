package sectopk

import (
	"context"
	"io"
	"net"
	"sort"
	"sync"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/paillier"
	"repro/internal/secerr"
	"repro/internal/secio"
	"repro/internal/shard"
	"repro/internal/transport"
)

// Scaling out. A relation's P round-robin shards need not live in one
// process: the owner cuts the encrypted relation into ShardSubsets, each
// member data cloud hosts one subset (HostShards + ServeCluster), and a
// front-door data cloud assembles the placement (HostCluster) and serves
// queries against it through the same Execute surface as a local
// relation. Top-k queries fan out to every member and merge under
// the NRA bound check (the front door runs the same shard.Engine as a
// local relation, with members as its sources; internal/cluster builds
// it); join and kNN relations are not
// shard-partitioned, so a member announces them whole and the front door
// forwards those queries to it over the ordinary client wire. Cluster
// answers are revealed-identical to a single node hosting everything.

// ShardSubset is the provisioning artifact for one cluster member: a
// subset of a relation's round-robin shards plus the placement metadata
// — the global shard count, the subset's global indices, the relation
// epoch, and the shared public key — a coordinator needs to validate
// that the members jointly tile the relation.
type ShardSubset struct {
	total   int
	indices []int
	shards  []*core.EncryptedRelation
	epoch   uint64
	pk      *paillier.PublicKey
}

// Subset cuts a member's provisioning subset out of an encrypted
// relation: the shards at the given global indices. Indices must be
// in-range and distinct; the full set 0..P-1 is a valid (single-member)
// subset.
func (er *EncryptedRelation) Subset(indices ...int) (*ShardSubset, error) {
	if len(indices) == 0 {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: subset selects no shards")
	}
	total := len(er.sh.Shards)
	seen := make(map[int]bool, len(indices))
	shards := make([]*core.EncryptedRelation, len(indices))
	for i, ix := range indices {
		if ix < 0 || ix >= total {
			return nil, secerr.New(secerr.CodeBadRequest, "sectopk: shard index %d out of range [0,%d)", ix, total)
		}
		if seen[ix] {
			return nil, secerr.New(secerr.CodeBadRequest, "sectopk: duplicate shard index %d", ix)
		}
		seen[ix] = true
		shards[i] = er.sh.Shards[ix]
	}
	return &ShardSubset{
		total:   total,
		indices: append([]int(nil), indices...),
		shards:  shards,
		epoch:   er.Epoch(),
		pk:      er.pk,
	}, nil
}

// Total returns the relation's global shard count P.
func (s *ShardSubset) Total() int { return s.total }

// Indices returns the subset's global shard indices.
func (s *ShardSubset) Indices() []int { return append([]int(nil), s.indices...) }

// Epoch returns the relation epoch the subset was cut at.
func (s *ShardSubset) Epoch() uint64 { return s.epoch }

// Rows returns the number of rows hosted by this subset.
func (s *ShardSubset) Rows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.N
	}
	return n
}

// Save persists the subset for handoff to a member node. Only
// public/encrypted material is written.
func (s *ShardSubset) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteHostedSubset(w, s.total, s.indices, s.shards, s.epoch, s.pk)
	})
}

// LoadShardSubset reads a member's provisioning subset.
func LoadShardSubset(path string) (*ShardSubset, error) {
	var out *ShardSubset
	err := loadFrom(path, func(r io.Reader) error {
		total, indices, shards, epoch, pk, err := secio.ReadHostedSubset(r)
		if err != nil {
			return err
		}
		out = &ShardSubset{total: total, indices: indices, shards: shards, epoch: epoch, pk: pk}
		return nil
	})
	return out, err
}

// hostedShards is one shard subset this data cloud serves as a cluster
// member. Like hostedRelation, the engine/subset pair is swapped
// atomically under mu — a handoff (re-provisioning via HostShards)
// replaces both while in-flight candidate scans keep the old engine.
type hostedShards struct {
	client *cloud.Client

	mu     sync.Mutex
	engine *shard.Engine
	sub    *ShardSubset
}

func (hs *hostedShards) kind() (string, Workload) { return "shard subset", WorkloadTopK }

func (hs *hostedShards) close() { hs.client.Close() }

// execute refuses typed: a subset holds part of a relation, so a query
// answered from it alone would be wrong. Its candidates are served on the
// cluster plane (ServeCluster) to a front door, which is what to query.
func (hs *hostedShards) execute(_ context.Context, req Request, _ queryConfig) (*Answer, error) {
	return nil, secerr.New(secerr.CodeUnknownRelation,
		"sectopk: relation %q is hosted as a shard subset, served on the cluster plane; query it through a front door",
		req.Relation)
}

// view builds the cluster-plane announcement for a subset served by
// engine.
func (s *ShardSubset) view(relation string, engine *shard.Engine) *cluster.Hosted {
	rows := make([]int, len(s.shards))
	for i, sh := range s.shards {
		rows[i] = sh.N
	}
	return &cluster.Hosted{
		Engine: engine,
		Info: cluster.SubsetInfo{
			Relation: relation,
			Total:    s.total,
			Indices:  append([]int(nil), s.indices...),
			Rows:     rows,
			M:        s.shards[0].M, MaxScoreBits: s.shards[0].MaxScoreBits,
			Epoch: s.epoch, PK: s.pk.N,
		},
	}
}

// hostedView announces the subset's current state.
func (hs *hostedShards) hostedView(relation string) *cluster.Hosted {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.sub.view(relation, hs.engine)
}

// hostedView announces a fully hosted relation as the complete subset
// 0..P-1, so a node hosting a whole relation can serve as the
// single-member degenerate cluster.
func (h *hostedRelation) hostedView(relation string) *cluster.Hosted {
	h.mu.Lock()
	defer h.mu.Unlock()
	shards := h.er.sh.Shards
	all := &ShardSubset{total: len(shards), indices: make([]int, len(shards)), shards: shards, epoch: h.state.Epoch, pk: h.er.pk}
	for i := range all.indices {
		all.indices[i] = i
	}
	return all.view(relation, h.engine)
}

// HostShards registers a relation's shard subset under id, making this
// data cloud a cluster member for it (serve the cluster plane with
// ServeCluster). Hosting an id that already serves a subset is a shard
// handoff: the engine is rebuilt over the new subset and swapped in
// atomically — in-flight candidate scans finish on the old engine, and
// readiness probes report the handoff while it runs (HandoffInFlight).
// The replacement must be encrypted under the same key material.
func (d *DataCloud) HostShards(ctx context.Context, id string, sub *ShardSubset) error {
	if id == "" || sub == nil || len(sub.shards) == 0 {
		return secerr.New(secerr.CodeBadRequest, "sectopk: missing relation id or shard subset")
	}
	d.mu.Lock()
	existing, _ := d.hosted[id].(*hostedShards)
	d.mu.Unlock()
	if existing != nil {
		return d.handoffShards(id, existing, sub)
	}
	return d.host(ctx, id, sub.pk, func(client *cloud.Client) (hosted, error) {
		_, engine, err := shardEngine(client, sub.shards)
		if err != nil {
			return nil, err
		}
		return &hostedShards{client: client, engine: engine, sub: sub}, nil
	})
}

// handoffShards swaps a hosted subset for its replacement.
func (d *DataCloud) handoffShards(id string, hs *hostedShards, sub *ShardSubset) error {
	hs.mu.Lock()
	samePK := hs.sub.pk.N.Cmp(sub.pk.N) == 0
	hs.mu.Unlock()
	if !samePK {
		return secerr.New(secerr.CodeBadRequest,
			"sectopk: handoff subset for %q is encrypted under different key material", id)
	}
	d.mu.Lock()
	d.handoffs++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.handoffs--
		d.mu.Unlock()
	}()
	_, engine, err := shardEngine(hs.client, sub.shards)
	if err != nil {
		return err
	}
	hs.mu.Lock()
	hs.engine = engine
	hs.sub = sub
	hs.mu.Unlock()
	return nil
}

// HandoffInFlight reports whether a shard handoff (a replacing
// HostShards) is currently swapping engines; readiness probes report 503
// while it is.
func (d *DataCloud) HandoffInFlight() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.handoffs > 0
}

// MemberID returns this node's cluster identity (WithMemberID; empty
// when unset — the front door then identifies the member by address).
func (d *DataCloud) MemberID() string { return d.cfg.memberID }

// HostedShardSubsets reports the shard subsets this member serves:
// relation id to the hosted global shard indices.
func (d *DataCloud) HostedShardSubsets() map[string][]int {
	out := map[string][]int{}
	for id, h := range d.entries() {
		if hs, ok := h.(*hostedShards); ok {
			hs.mu.Lock()
			out[id] = append([]int(nil), hs.sub.indices...)
			hs.mu.Unlock()
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
	switch h := h.(type) {
	case *hostedShards:
		return h.hostedView(relation)
	case *hostedRelation:
		return h.hostedView(relation)
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
	conn   transport.ConnCaller
}

// clusterCoord is one relation's assembled placement: the sharded engine
// whose sources are the members, over the front door's own S2 client
// (the merge rounds run on it), pinned to the placement's epoch.
type clusterCoord struct {
	engine *shard.Engine
	epoch  uint64
	client *cloud.Client
}

func (cc *clusterCoord) kind() (string, Workload) {
	return "cluster-coordinated relation", WorkloadTopK
}

func (cc *clusterCoord) close() { cc.client.Close() }

// execute fans the query out to every member and merges under the NRA
// bound check. The placement pins one epoch for its whole lifetime
// (members reject any other), so the front-door pin check mirrors the
// local-snapshot one.
func (cc *clusterCoord) execute(ctx context.Context, req Request, cfg queryConfig) (*Answer, error) {
	return executeTopK(ctx, cc.engine, cc.epoch, req, cfg)
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
		Relation:    req.Relation,
		Workload:    string(rt.workload),
		Token:       token,
		Options:     cfg.wire(),
		Idempotency: cfg.queryID,
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

// clusterHello runs the cluster-plane version handshake and returns the
// member's inventory.
func clusterHello(ctx context.Context, caller transport.Caller) (*cluster.HelloReply, error) {
	req := cluster.HelloRequest{Version: cluster.ProtocolVersion}
	var rep cluster.HelloReply
	if err := caller.Call(ctx, cluster.MethodHello, req, &rep); err != nil {
		return nil, err
	}
	if err := cluster.CheckVersion(rep.Version); err != nil {
		return nil, err
	}
	return &rep, nil
}

// HostCluster makes this data cloud the front door of a member fleet: it
// dials each node's cluster listener, learns the members' inventories
// from their Hellos, validates that every announced shard subset tiles
// its relation exactly, and registers a coordinator per sharded relation
// plus a forwarding route per whole-hosted join/kNN relation. The data
// cloud must already be connected to the crypto cloud — the merge rounds
// run on its own S2 link. Queries then flow through the ordinary Execute
// surface; cluster-hosted relations are read-only here (mutate at the
// owner and re-provision the members). One cluster per data cloud; a
// second HostCluster fails typed.
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
		var dialer net.Dialer
		conn, err := dialer.DialContext(ctx, "tcp", addr)
		if err != nil {
			return fail(secerr.Wrap(secerr.CodeUnavailable, err, "sectopk: dialing cluster member %s", addr))
		}
		mc, err := transport.Connect(ctx, conn, d.stats)
		if err != nil {
			conn.Close()
			return fail(secerr.Wrap(secerr.CodeUnavailable, err, "sectopk: connecting cluster member %s", addr))
		}
		node := &clusterNode{addr: addr, conn: mc}
		cl.nodes = append(cl.nodes, node)
		rep, err := clusterHello(ctx, mc)
		if err != nil {
			return fail(secerr.Wrap(secerr.CodeOf(err), err, "sectopk: cluster member %s hello", addr))
		}
		node.member = rep.Member
		if node.member == "" {
			node.member = addr
		}
		for _, info := range rep.Subsets {
			contribs[info.Relation] = append(contribs[info.Relation],
				cluster.Contribution{Member: node.member, Caller: mc, Info: info})
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
			return &clusterCoord{engine: engine, epoch: ms[0].Info.Epoch, client: client}, nil
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
