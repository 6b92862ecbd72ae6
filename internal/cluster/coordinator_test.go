package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/secerr"
	"repro/internal/secio"
	"repro/internal/shard"
	"repro/internal/transport"
)

type rigT struct {
	scheme *core.Scheme
	client *cloud.Client
	ledger *cloud.Ledger
}

var (
	rigOnce sync.Once
	rig     *rigT
)

func getRig(t testing.TB) *rigT {
	t.Helper()
	rigOnce.Do(func() {
		scheme, err := core.NewScheme(core.Params{
			KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 20,
		})
		if err != nil {
			t.Fatalf("NewScheme: %v", err)
		}
		server, err := cloud.NewServer(scheme.KeyMaterial(), nil)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		ledger := cloud.NewLedger()
		client, err := cloud.NewClient(transport.NewLocal(server, nil), scheme.PublicKey(), ledger)
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		rig = &rigT{scheme: scheme, client: client, ledger: ledger}
	})
	return rig
}

func testRelation() *dataset.Relation {
	return &dataset.Relation{
		Name: "clu",
		Rows: [][]int64{
			{30, 3, 2}, {28, 8, 0}, {5, 27, 6}, {3, 2, 28}, {11, 11, 1}, {9, 4, 13},
			{24, 1, 1}, {2, 25, 2}, {7, 7, 7}, {16, 2, 4}, {1, 19, 3}, {6, 6, 20},
		},
	}
}

// info builds a SubsetInfo for a set of shards cut from sh.
func info(sh *shard.Relation, pkN *big.Int, indices ...int) SubsetInfo {
	inf := SubsetInfo{
		Relation: "clu", Total: len(sh.Shards), Indices: indices,
		M: sh.M, MaxScoreBits: sh.MaxScoreBits, Epoch: 1, PK: pkN,
	}
	for _, ix := range indices {
		inf.Rows = append(inf.Rows, sh.Shards[ix].N)
	}
	return inf
}

// memberInventory is a minimal member for in-package tests: it hosts one
// subset directly over a shard.Engine.
type memberInventory struct {
	id     string
	hosted *Hosted
}

func (m *memberInventory) Member() string { return m.id }
func (m *memberInventory) Subsets() []*Hosted {
	return []*Hosted{m.hosted}
}
func (m *memberInventory) Subset(rel string) (*Hosted, bool) {
	if rel == m.hosted.Info.Relation {
		return m.hosted, true
	}
	return nil, false
}
func (m *memberInventory) Routes() []RouteInfo                       { return nil }
func (m *memberInventory) Begin(ctx context.Context) (func(), error) { return func() {}, nil }

// localCaller routes coordinator calls straight into a member's Respond,
// exercising the full wire encode/decode without a socket.
type localCaller struct{ inv Inventory }

func (l localCaller) Call(ctx context.Context, method string, req, resp any) error {
	body, err := transport.Encode(req)
	if err != nil {
		return err
	}
	out, handled, err := Respond(ctx, l.inv, method, body)
	if err != nil {
		return err
	}
	if !handled {
		return secerr.New(secerr.CodeUnknownMethod, "test: method %q not a cluster method", method)
	}
	return transport.Decode(out, resp)
}

// newMember cuts the given shard indices into a member with its own
// engine, returning the coordinator-side contribution.
func newMember(t *testing.T, r *rigT, sh *shard.Relation, id string, indices ...int) Contribution {
	t.Helper()
	subset := make([]*core.EncryptedRelation, len(indices))
	for i, ix := range indices {
		subset[i] = sh.Shards[ix]
	}
	local, err := shard.New(subset)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := shard.NewEngine(r.client, local)
	if err != nil {
		t.Fatal(err)
	}
	inv := &memberInventory{id: id, hosted: &Hosted{Engine: engine, Info: info(sh, r.scheme.PublicKey().N, indices...)}}
	return Contribution{Member: id, Caller: localCaller{inv: inv}, Info: inv.hosted.Info}
}

// TestPlacementValidation pins every way a placement can fail to tile
// the relation.
func TestPlacementValidation(t *testing.T) {
	r := getRig(t)
	sh, err := shard.Encrypt(r.scheme, testRelation(), 4)
	if err != nil {
		t.Fatal(err)
	}
	pkN := r.scheme.PublicKey().N
	a := newMember(t, r, sh, "a", 0, 1)
	b := newMember(t, r, sh, "b", 2, 3)

	t.Run("valid", func(t *testing.T) {
		c, err := NewCoordinator(r.client, "clu", []Contribution{b, a})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		// The fan-out is one source per member, whatever the join order.
		if c.Shards() != 2 {
			t.Fatalf("fan-out over %d sources, want 2 members", c.Shards())
		}
	})
	t.Run("gap", func(t *testing.T) {
		if _, err := NewCoordinator(r.client, "clu", []Contribution{a}); err == nil || !strings.Contains(err.Error(), "unhosted") {
			t.Fatalf("gap placement: err = %v", err)
		}
	})
	t.Run("overlap", func(t *testing.T) {
		b2 := newMember(t, r, sh, "b2", 1, 2, 3)
		if _, err := NewCoordinator(r.client, "clu", []Contribution{a, b2}); err == nil || !strings.Contains(err.Error(), "hosted by both") {
			t.Fatalf("overlapping placement: err = %v", err)
		}
	})
	t.Run("epoch mismatch", func(t *testing.T) {
		b2 := b
		b2.Info.Epoch = 2
		if _, err := NewCoordinator(r.client, "clu", []Contribution{a, b2}); err == nil || !strings.Contains(err.Error(), "epoch") {
			t.Fatalf("mixed-epoch placement: err = %v", err)
		}
	})
	t.Run("key mismatch", func(t *testing.T) {
		b2 := b
		b2.Info.PK = new(big.Int).Add(pkN, big.NewInt(2))
		if _, err := NewCoordinator(r.client, "clu", []Contribution{a, b2}); err == nil || !strings.Contains(err.Error(), "key material") {
			t.Fatalf("mixed-key placement: err = %v", err)
		}
	})
	t.Run("wrong relation", func(t *testing.T) {
		b2 := b
		b2.Info.Relation = "other"
		if _, err := NewCoordinator(r.client, "clu", []Contribution{a, b2}); err == nil {
			t.Fatal("cross-relation contribution accepted")
		}
	})
	t.Run("rows misaligned", func(t *testing.T) {
		b2 := b
		b2.Info.Rows = b2.Info.Rows[:1]
		if _, err := NewCoordinator(r.client, "clu", []Contribution{a, b2}); err == nil {
			t.Fatal("misaligned row counts accepted")
		}
	})
}

// TestCoordinatorMatchesSingleEngine runs the same token through a
// 2-member coordinator and through one engine hosting all four shards,
// and requires the revealed answers to be identical — the distributed
// merge is the in-process merge.
func TestCoordinatorMatchesSingleEngine(t *testing.T) {
	r := getRig(t)
	sh, err := shard.Encrypt(r.scheme, testRelation(), 4)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(r.client, "clu", []Contribution{
		newMember(t, r, sh, "a", 0, 1),
		newMember(t, r, sh, "b", 2, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	single, err := shard.NewEngine(r.client, sh)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := r.scheme.Token(sh.Shards[0], []int{0, 1, 2}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	tk.K = 3
	rev, err := r.scheme.NewRevealer(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Options{
		{Mode: core.QryE, Halt: core.HaltPaper},
		{Mode: core.QryE, Halt: core.HaltPaper, MaxDepth: 1}, // forces the rescan fallback
	} {
		ctx := context.Background()
		want, err := single.SecQuery(ctx, tk, opts)
		if err != nil {
			t.Fatalf("single-engine SecQuery: %v", err)
		}
		got, err := coord.SecQuery(ctx, tk, opts)
		if err != nil {
			t.Fatalf("coordinator SecQuery: %v", err)
		}
		wantRev, err := rev.RevealTopK(want.Items)
		if err != nil {
			t.Fatal(err)
		}
		gotRev, err := rev.RevealTopK(got.Items)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotRev) != len(wantRev) {
			t.Fatalf("opts %+v: %d items vs %d", opts, len(gotRev), len(wantRev))
		}
		for i := range wantRev {
			if gotRev[i].Obj != wantRev[i].Obj || gotRev[i].Worst != wantRev[i].Worst {
				t.Fatalf("opts %+v item %d: cluster %+v vs single %+v", opts, i, gotRev[i], wantRev[i])
			}
		}
	}
}

// TestCoordinatorEpochPin pins that a member hosting a different epoch
// than the placement fails typed-stale, never silently contributing.
func TestCoordinatorEpochPin(t *testing.T) {
	r := getRig(t)
	sh, err := shard.Encrypt(r.scheme, testRelation(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := newMember(t, r, sh, "a", 0)
	b := newMember(t, r, sh, "b", 1)
	coord, err := NewCoordinator(r.client, "clu", []Contribution{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// The member re-provisions to a newer epoch behind the coordinator's
	// back: its announced Info (and so the serving inventory) moves on.
	b.Caller.(localCaller).inv.(*memberInventory).hosted.Info.Epoch = 2
	tk, err := r.scheme.Token(sh.Shards[0], []int{0, 1}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE, Halt: core.HaltPaper})
	if !errors.Is(err, secerr.ErrRelationStale) {
		t.Fatalf("mixed-epoch query: err = %v (code %q), want relation_stale", err, secerr.CodeOf(err))
	}
	if err == nil || !strings.Contains(err.Error(), "b") {
		t.Fatalf("stale error does not name the member: %v", err)
	}
}

// TestCandidatesRefusesBadOptions sends the cluster wire's engine options
// straight to a member: values no engine path defines are refused typed
// bad_request before the member admits the request, never run as some
// neighbouring mode.
func TestCandidatesRefusesBadOptions(t *testing.T) {
	r := getRig(t)
	sh, err := shard.Encrypt(r.scheme, testRelation(), 2)
	if err != nil {
		t.Fatal(err)
	}
	member := newMember(t, r, sh, "a", 0, 1)
	tk, err := r.scheme.Token(sh.Shards[0], []int{0, 1}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	tk.K = 3
	var token bytes.Buffer
	if err := secio.WriteToken(&token, tk); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		"mode 7":             {Mode: 7},
		"halt 9":             {Halt: 9},
		"sort 5":             {Sort: 5},
		"max depth -3":       {MaxDepth: -3},
		"batch depth -1":     {BatchDepth: -1},
		"Qry_Ba batch p < k": {Mode: core.QryBa, BatchDepth: 2},
	} {
		req := CandidatesRequest{Relation: "clu", Token: token.Bytes(), Options: opts, Epoch: 1}
		var reply CandidatesReply
		err := member.Caller.Call(context.Background(), MethodCandidates, req, &reply)
		if !errors.Is(err, secerr.ErrBadRequest) {
			t.Errorf("%s: err = %v (code %q), want bad_request", name, err, secerr.CodeOf(err))
		}
	}
}
