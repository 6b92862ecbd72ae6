package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/big"

	"repro/internal/core"
	"repro/internal/secerr"
	"repro/internal/secio"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Cluster wire: the two methods a member serves on its cluster
// listener, multiplexed on the same framing as everything else. The
// listener also falls through to the client-wire methods (the facade's
// responder composes the two), so a front door can forward whole
// queries — join and kNN, which are not shard-partitioned — to the
// member that hosts them using the ordinary client encoding.
const (
	// ProtocolVersion is the cluster wire version; both sides of a Hello
	// must carry exactly this value. v2: CandidatesRequest carries
	// core.Options itself. v3: every frame is its own internal/wire
	// message (the layout is the comment on its MarshalBinary).
	ProtocolVersion = 3

	// MethodHello checks versions and announces the member's
	// inventory: which shard subsets and whole-relation routes it hosts.
	MethodHello = "Cluster.Hello"
	// MethodCandidates runs one token over the member's shards of a
	// relation and returns the per-shard candidate sets for the
	// coordinator's merge.
	MethodCandidates = "Cluster.Candidates"
)

// HelloRequest opens a coordinator→member session: the version the
// coordinator speaks.
type HelloRequest struct {
	Version int
}

// MarshalBinary: uvarint(Version).
func (m HelloRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Int("Version", m.Version)
	return w.Finish()
}

// UnmarshalBinary reads the version first and, at any other version than
// this build's, nothing after it: the caller's CheckVersion refuses it.
func (m *HelloRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	if m.Version = r.Int("Version"); m.Version != ProtocolVersion {
		return r.Err()
	}
	return r.Finish()
}

// CheckVersion refuses a peer at any cluster wire version but this
// build's.
func CheckVersion(peer int) error {
	if peer != ProtocolVersion {
		return secerr.New(secerr.CodeProtocolVersion,
			"cluster: peer speaks cluster wire v%d, this side v%d only", peer, ProtocolVersion)
	}
	return nil
}

// SubsetInfo is a member's announcement of one hosted shard subset: its
// placement within the global relation plus the shape metadata the
// coordinator needs to validate tiling and size its merge comparisons.
type SubsetInfo struct {
	Relation string
	// Total is the relation's global shard count P; Indices the global
	// shard indices hosted here; Rows the per-shard row counts aligned
	// with Indices.
	Total   int
	Indices []int
	Rows    []int
	// M and MaxScoreBits are the relation's global shape; Epoch its
	// version; PK the shared Paillier modulus.
	M            int
	MaxScoreBits int
	Epoch        uint64
	PK           *big.Int
}

// RouteInfo announces a relation the member hosts whole — join and kNN
// workloads, which the front door forwards rather than fans out.
type RouteInfo struct {
	Relation string
	Workload string
}

// HelloReply is the member's inventory.
type HelloReply struct {
	Version int
	Member  string
	Subsets []SubsetInfo
	Routes  []RouteInfo
}

// MarshalBinary: uvarint(Version) string(Member), then per subset
// string(Relation) uvarint(Total) uvarint list(Indices) uvarint list(Rows)
// uvarint(M) uvarint(MaxScoreBits) uvarint(Epoch) integer(PK), then per
// route string(Relation) string(Workload); both lists count-prefixed.
func (m HelloReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Int("Version", m.Version)
	w.String(m.Member)
	w.Uvarint(uint64(len(m.Subsets)))
	for _, s := range m.Subsets {
		w.String(s.Relation)
		w.Int("Total", s.Total)
		w.Ints("Indices", s.Indices)
		w.Ints("Rows", s.Rows)
		w.Int("M", s.M)
		w.Int("MaxScoreBits", s.MaxScoreBits)
		w.Uvarint(s.Epoch)
		w.Big("PK", s.PK)
	}
	w.Uvarint(uint64(len(m.Routes)))
	for _, rt := range m.Routes {
		w.String(rt.Relation)
		w.String(rt.Workload)
	}
	return w.Finish()
}

// UnmarshalBinary stops after the version at any other version, as
// HelloRequest's does.
func (m *HelloReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	if m.Version = r.Int("Version"); m.Version != ProtocolVersion {
		return r.Err()
	}
	m.Member = r.String("Member")
	m.Subsets = make([]SubsetInfo, r.Count("Subsets", 8))
	for i := range m.Subsets {
		m.Subsets[i] = SubsetInfo{Relation: r.String("Relation"), Total: r.Int("Total"), Indices: r.Ints("Indices"),
			Rows: r.Ints("Rows"), M: r.Int("M"), MaxScoreBits: r.Int("MaxScoreBits"), Epoch: r.Uvarint(), PK: r.Big("PK")}
	}
	m.Routes = make([]RouteInfo, r.Count("Routes", 2))
	for i := range m.Routes {
		m.Routes[i] = RouteInfo{Relation: r.String("Relation"), Workload: r.String("Workload")}
	}
	return r.Finish()
}

// CandidatesRequest asks a member to run one token over its shards of a
// relation under the front door's engine options (ExactScan set on the
// merge-bound fallback rescan). Epoch pins the member's hosted epoch
// (non-zero always: the coordinator pins the epoch it assembled the
// placement at, so a cluster never merges candidates from mixed epochs).
type CandidatesRequest struct {
	Relation string
	Token    []byte // secio "token" stream
	Options  core.Options
	Epoch    uint64
}

// MarshalBinary: string(Relation) bytes(Token), the options as signed
// Mode, Halt, Sort, BatchDepth, MaxDepth, then uvarint(ExactScan)
// string(QueryID), then uvarint(Epoch). The options go as the peer set
// them; the member's Options.Validate refuses what no engine path defines.
func (m CandidatesRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.Bytes(m.Token)
	o := m.Options
	for _, v := range []int{int(o.Mode), int(o.Halt), int(o.Sort), o.BatchDepth, o.MaxDepth} {
		w.Varint(int64(v))
	}
	w.Bool(o.ExactScan)
	w.String(o.QueryID)
	w.Uvarint(m.Epoch)
	return w.Finish()
}

func (m *CandidatesRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Relation, m.Token = r.String("Relation"), r.Bytes("Token")
	o := &m.Options
	o.Mode, o.Halt, o.Sort = core.Mode(r.Varint()), core.HaltPolicy(r.Varint()), core.SortStrategy(r.Varint())
	o.BatchDepth, o.MaxDepth = int(r.Varint()), int(r.Varint())
	o.ExactScan, o.QueryID = r.Bool("ExactScan"), r.String("QueryID")
	m.Epoch = r.Uvarint()
	return r.Finish()
}

// CandidatesReply carries one secio "candidates" stream per hosted
// shard, aligned with the member's announced Indices.
type CandidatesReply struct {
	Epoch uint64
	Sets  [][]byte
}

// MarshalBinary: uvarint(Epoch) uvarint(count), then bytes(set) each.
func (m CandidatesReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(len(m.Sets)))
	for _, set := range m.Sets {
		w.Bytes(set)
	}
	return w.Finish()
}

func (m *CandidatesReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Epoch = r.Uvarint()
	m.Sets = make([][]byte, r.Count("Sets", 1))
	for i := range m.Sets {
		m.Sets[i] = r.Bytes("set")
	}
	return r.Finish()
}

// Hosted is one shard subset a member serves: the engine over its local
// shards plus the placement metadata it announces.
type Hosted struct {
	Engine *shard.Engine
	Info   SubsetInfo
}

// Inventory is the member-side state the responder serves from. The
// facade implements it over its hosted-subset registry.
type Inventory interface {
	// Member is this node's cluster identity, reported in Hello and in
	// readiness probes.
	Member() string
	// Subsets lists every hosted shard subset; Subset resolves one.
	Subsets() []*Hosted
	Subset(relation string) (*Hosted, bool)
	// Routes lists the whole-relation workloads this member serves.
	Routes() []RouteInfo
	// Begin brackets one candidate execution into the host's admission
	// and drain accounting. The returned release must be called exactly
	// once iff err is nil.
	Begin(ctx context.Context) (func(), error)
}

// Respond serves one cluster-plane method. handled=false means the
// method is not a cluster method and the caller should fall through to
// its other responders (the facade chains the client-wire responder so
// one listener serves both planes).
func Respond(ctx context.Context, inv Inventory, method string, body []byte) (out []byte, handled bool, err error) {
	switch method {
	case MethodHello:
		out, err = serveHello(inv, body)
		return out, true, err
	case MethodCandidates:
		out, err = serveCandidates(ctx, inv, body)
		return out, true, err
	}
	return nil, false, nil
}

func serveHello(inv Inventory, body []byte) ([]byte, error) {
	var req HelloRequest
	if err := transport.Decode(body, &req); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cluster: undecodable hello")
	}
	if err := CheckVersion(req.Version); err != nil {
		return nil, err
	}
	reply := HelloReply{Version: ProtocolVersion, Member: inv.Member(), Routes: inv.Routes()}
	for _, h := range inv.Subsets() {
		reply.Subsets = append(reply.Subsets, h.Info)
	}
	return transport.Encode(reply)
}

func serveCandidates(ctx context.Context, inv Inventory, body []byte) ([]byte, error) {
	var req CandidatesRequest
	if err := transport.Decode(body, &req); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cluster: undecodable candidates request")
	}
	h, ok := inv.Subset(req.Relation)
	if !ok {
		return nil, secerr.New(secerr.CodeUnknownRelation,
			"cluster: member %s hosts no shards of relation %q", inv.Member(), req.Relation)
	}
	if req.Epoch != 0 && req.Epoch != h.Info.Epoch {
		return nil, secerr.New(secerr.CodeRelationStale,
			"cluster: request pinned to epoch %d but member %s hosts epoch %d", req.Epoch, inv.Member(), h.Info.Epoch)
	}
	tk, err := secio.ReadToken(bytes.NewReader(req.Token))
	if err != nil {
		return nil, err
	}
	if err := req.Options.Validate(tk.K); err != nil {
		return nil, err
	}
	release, err := inv.Begin(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	sets, err := h.Engine.Candidates(ctx, tk, req.Options)
	if err != nil {
		// A canceled serve context means this member is draining or its
		// peer link died mid-query; either way the member is unavailable
		// for this call, and the coordinator's retry/typed-error contract
		// depends on seeing that code rather than a bare cancellation
		// bubbled up from deep inside the engine.
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			return nil, secerr.Wrap(secerr.CodeUnavailable, err,
				"cluster: member %s canceled mid-query", inv.Member())
		}
		return nil, err
	}
	reply := CandidatesReply{Epoch: h.Info.Epoch, Sets: make([][]byte, len(sets))}
	for i, cs := range sets {
		var buf bytes.Buffer
		if err := secio.WriteCandidates(&buf, cs); err != nil {
			return nil, err
		}
		reply.Sets[i] = buf.Bytes()
	}
	return transport.Encode(reply)
}
