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
// queries against it through the same Execute/Session surface as a
// local relation. Top-k queries fan out to every member and merge under
// the NRA bound check (internal/cluster); join and kNN relations are not
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
	return saveTo(path, func(w io.Writer) error {
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

// hostedView builds the cluster-plane announcement for the subset's
// current state.
func (hs *hostedShards) hostedView(relation string) *cluster.Hosted {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	sub := hs.sub
	rows := make([]int, len(sub.shards))
	for i, s := range sub.shards {
		rows[i] = s.N
	}
	return &cluster.Hosted{
		Engine: hs.engine,
		Info: cluster.SubsetInfo{
			Relation: relation,
			Total:    sub.total,
			Indices:  append([]int(nil), sub.indices...),
			Rows:     rows,
			M:        sub.shards[0].M, MaxScoreBits: sub.shards[0].MaxScoreBits,
			Epoch: sub.epoch, PK: sub.pk.N,
		},
	}
}

// hostedView announces a fully hosted relation as the complete subset
// 0..P-1, so a node hosting a whole relation can serve as the
// single-member degenerate cluster.
func (h *hostedRelation) hostedView(relation string) *cluster.Hosted {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := len(h.er.sh.Shards)
	indices := make([]int, p)
	rows := make([]int, p)
	for i, s := range h.er.sh.Shards {
		indices[i] = i
		rows[i] = s.N
	}
	return &cluster.Hosted{
		Engine: h.engine,
		Info: cluster.SubsetInfo{
			Relation: relation,
			Total:    p,
			Indices:  indices,
			Rows:     rows,
			M:        h.er.sh.M, MaxScoreBits: h.er.sh.MaxScoreBits,
			Epoch: h.state.Epoch, PK: h.er.pk.N,
		},
	}
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
	caller, err := d.connectedCaller()
	if err != nil {
		return err
	}
	d.mu.Lock()
	existing := d.shardHosts[id]
	if existing == nil {
		if err := d.hostableLocked(id); err != nil {
			d.mu.Unlock()
			return err
		}
	}
	d.mu.Unlock()
	if existing != nil {
		return d.handoffShards(id, existing, sub)
	}
	client, err := cloud.NewClient(caller, sub.pk, d.ledger, append(d.cfg.cloudOptions(), cloud.WithRelation(id))...)
	if err != nil {
		return err
	}
	if err := client.Handshake(ctx); err != nil {
		client.Close()
		return err
	}
	sh, err := shard.New(sub.shards)
	if err != nil {
		client.Close()
		return err
	}
	engine, err := shard.NewEngine(client, sh)
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
	d.shardHosts[id] = &hostedShards{client: client, engine: engine, sub: sub}
	return nil
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
	sh, err := shard.New(sub.shards)
	if err != nil {
		return err
	}
	engine, err := shard.NewEngine(hs.client, sh)
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
	d.mu.Lock()
	hosts := make(map[string]*hostedShards, len(d.shardHosts))
	for id, hs := range d.shardHosts {
		hosts[id] = hs
	}
	d.mu.Unlock()
	out := make(map[string][]int, len(hosts))
	for id, hs := range hosts {
		hs.mu.Lock()
		out[id] = append([]int(nil), hs.sub.indices...)
		hs.mu.Unlock()
	}
	return out
}

// clusterInventory adapts the data cloud's registries to the member-side
// cluster plane: shard subsets (and fully hosted relations, announced as
// complete subsets) fan in to the coordinator's merge; join and kNN
// relations announce as whole-relation routes.
type clusterInventory struct{ d *DataCloud }

func (v *clusterInventory) Member() string { return v.d.cfg.memberID }

func (v *clusterInventory) Subsets() []*cluster.Hosted {
	d := v.d
	d.mu.Lock()
	hosts := make(map[string]*hostedShards, len(d.shardHosts))
	for id, hs := range d.shardHosts {
		hosts[id] = hs
	}
	full := make(map[string]*hostedRelation, len(d.relations))
	for id, h := range d.relations {
		full[id] = h
	}
	d.mu.Unlock()
	out := make([]*cluster.Hosted, 0, len(hosts)+len(full))
	for id, hs := range hosts {
		out = append(out, hs.hostedView(id))
	}
	for id, h := range full {
		out = append(out, h.hostedView(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Info.Relation < out[j].Info.Relation })
	return out
}

func (v *clusterInventory) Subset(relation string) (*cluster.Hosted, bool) {
	d := v.d
	d.mu.Lock()
	hs := d.shardHosts[relation]
	h := d.relations[relation]
	d.mu.Unlock()
	switch {
	case hs != nil:
		return hs.hostedView(relation), true
	case h != nil:
		return h.hostedView(relation), true
	}
	return nil, false
}

func (v *clusterInventory) Routes() []cluster.RouteInfo {
	d := v.d
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]cluster.RouteInfo, 0, len(d.joins)+len(d.knns))
	for id := range d.joins {
		out = append(out, cluster.RouteInfo{Relation: id, Workload: string(WorkloadJoin)})
	}
	for id := range d.knns {
		out = append(out, cluster.RouteInfo{Relation: id, Workload: string(WorkloadKNN)})
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
	gate := d.clientAdmission()
	if err := gate.acquire(ctx); err != nil {
		d.endExecute()
		return nil, err
	}
	return func() {
		gate.release()
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
	responder := &clusterResponder{
		inv:    &clusterInventory{d: d},
		client: &clientResponder{dc: d, gate: d.clientAdmission()},
	}
	return transport.ServeWith(ctx, l, responder, transport.ServeOptions{Drain: d.cfg.drainTimeout})
}

// clusterNode is one dialed member of the hosted cluster.
type clusterNode struct {
	addr   string
	member string
	conn   transport.ConnCaller
}

// clusterCoord is one relation's assembled placement: the coordinator
// plus the front door's own S2 client the merge rounds run on.
type clusterCoord struct {
	coord  *cluster.Coordinator
	client *cloud.Client
}

// clusterRoute is one whole-relation workload forwarded to the member
// hosting it.
type clusterRoute struct {
	workload Workload
	member   string
	node     *clusterNode
}

// hostedCluster is the front door's view of the member fleet.
type hostedCluster struct {
	nodes  []*clusterNode
	coords map[string]*clusterCoord
	routes map[string]*clusterRoute
}

func (cl *hostedCluster) close() {
	for _, cc := range cl.coords {
		cc.client.Close()
	}
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
// run on its own S2 link. Queries then flow through the ordinary
// Execute/Session surface; cluster-hosted relations are read-only here
// (mutate at the owner and re-provision the members). One cluster per
// data cloud; a second HostCluster fails typed.
func (d *DataCloud) HostCluster(ctx context.Context, nodes []string) error {
	if len(nodes) == 0 {
		return secerr.New(secerr.CodeBadRequest, "sectopk: cluster has no member nodes")
	}
	caller, err := d.connectedCaller()
	if err != nil {
		return err
	}
	d.mu.Lock()
	already := d.cluster != nil
	d.mu.Unlock()
	if already {
		return secerr.New(secerr.CodeRelationExists, "sectopk: a cluster is already hosted")
	}
	cl := &hostedCluster{coords: map[string]*clusterCoord{}, routes: map[string]*clusterRoute{}}
	fail := func(err error) error {
		cl.close()
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
			if prev := cl.routes[rt.Relation]; prev != nil {
				return fail(secerr.New(secerr.CodeBadRequest,
					"sectopk: relation %q hosted whole by both %s and %s", rt.Relation, prev.member, node.member))
			}
			cl.routes[rt.Relation] = &clusterRoute{workload: Workload(rt.Workload), member: node.member, node: node}
		}
	}
	for rel, ms := range contribs {
		if rt := cl.routes[rel]; rt != nil {
			return fail(secerr.New(secerr.CodeBadRequest,
				"sectopk: relation %q announced both sharded and whole (member %s)", rel, rt.member))
		}
		pk, err := paillier.NewPublicKeyFromN(ms[0].Info.PK)
		if err != nil {
			return fail(secerr.Wrap(secerr.CodeBadRequest, err,
				"sectopk: member %s announced relation %q with bad key material", ms[0].Member, rel))
		}
		client, err := cloud.NewClient(caller, pk, d.ledger,
			append(d.cfg.cloudOptions(), cloud.WithRelation(rel))...)
		if err != nil {
			return fail(err)
		}
		if err := client.Handshake(ctx); err != nil {
			client.Close()
			return fail(err)
		}
		coord, err := cluster.NewCoordinator(client, rel, ms)
		if err != nil {
			client.Close()
			return fail(err)
		}
		cl.coords[rel] = &clusterCoord{coord: coord, client: client}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cluster != nil {
		return fail(secerr.New(secerr.CodeRelationExists, "sectopk: a cluster is already hosted"))
	}
	for rel := range cl.coords {
		if err := d.hostableLocked(rel); err != nil {
			return fail(err)
		}
	}
	for rel := range cl.routes {
		if err := d.hostableLocked(rel); err != nil {
			return fail(err)
		}
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
	cl := d.clusterView()
	if cl == nil {
		return nil
	}
	out := make([]string, 0, len(cl.coords)+len(cl.routes))
	for id := range cl.coords {
		out = append(out, id)
	}
	for id := range cl.routes {
		out = append(out, id)
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

// clusterMutable rejects mutations aimed at cluster-hosted relations:
// the front door is read-only — owners mutate the source relation and
// re-provision the member subsets, then re-assemble the placement.
func (d *DataCloud) clusterMutable(relation string) error {
	cl := d.clusterView()
	if cl == nil {
		return nil
	}
	if cl.coords[relation] != nil || cl.routes[relation] != nil {
		return secerr.New(secerr.CodeBadRequest,
			"sectopk: relation %q is cluster-hosted and read-only at the front door; re-provision the members to mutate it", relation)
	}
	return nil
}

// clusterAnswer executes a request against the hosted cluster when its
// relation is cluster-served. handled=false means the relation is not
// cluster-hosted and the caller should resolve it locally.
func (d *DataCloud) clusterAnswer(ctx context.Context, w Workload, req Request, cfg queryConfig) (*Answer, bool, error) {
	cl := d.clusterView()
	if cl == nil {
		return nil, false, nil
	}
	if cc := cl.coords[req.Relation]; cc != nil {
		if w != WorkloadTopK {
			return nil, true, secerr.New(secerr.CodeUnknownRelation,
				"sectopk: relation %q is cluster-hosted for %s queries, not %s", req.Relation, WorkloadTopK, w)
		}
		// The placement pins one epoch for its whole lifetime (members
		// reject any other), so the front-door pin check mirrors the
		// local-snapshot one.
		if cfg.epoch != 0 && cfg.epoch != cc.coord.Epoch() {
			return nil, true, secerr.New(secerr.CodeRelationStale,
				"sectopk: query pinned to epoch %d, cluster placement of %q is at epoch %d",
				cfg.epoch, req.Relation, cc.coord.Epoch())
		}
		res, err := cc.coord.SecQuery(ctx, req.TopK.tk, cfg.coreOptions())
		if err != nil {
			return nil, true, err
		}
		ans := &Answer{TopK: &EncryptedResult{items: res.Items, Depth: res.Depth, Halted: res.Halted}}
		ans.Traffic.FanOut = cc.coord.Members()
		ans.Traffic.Epoch = cc.coord.Epoch()
		return ans, true, nil
	}
	if rt := cl.routes[req.Relation]; rt != nil {
		if w != rt.workload {
			return nil, true, secerr.New(secerr.CodeUnknownRelation,
				"sectopk: relation %q is cluster-hosted for %s queries, not %s", req.Relation, rt.workload, w)
		}
		ans, err := d.forwardExecute(ctx, rt, req, w, cfg)
		return ans, true, err
	}
	return nil, false, nil
}

// forwardExecute ships a whole-relation query to the member hosting it
// over the client wire and decodes the answer, so forwarded queries keep
// the exact error taxonomy and result encoding of direct ones.
func (d *DataCloud) forwardExecute(ctx context.Context, rt *clusterRoute, req Request, w Workload, cfg queryConfig) (*Answer, error) {
	token, err := encodeWireToken(req, w)
	if err != nil {
		return nil, err
	}
	wreq := clientExecuteRequest{
		Relation:    req.Relation,
		Workload:    string(w),
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
	ans, err := decodeWireAnswer(w, rep.Answer)
	if err != nil {
		return nil, err
	}
	// Carry the member's span fields through the front door (its own
	// rounds/bytes delta overwrites the wire-level counters).
	ans.Traffic.S2Calls = rep.S2Calls
	ans.Traffic.FanOut = rep.FanOut
	ans.Traffic.MergeFallbacks = rep.MergeFallbacks
	ans.Traffic.Epoch = rep.Epoch
	return ans, nil
}
