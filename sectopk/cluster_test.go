package sectopk_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/secerr"
	"repro/sectopk"
)

// clusterRig is a front door over a fleet of member data clouds sharing
// one crypto cloud: the "topk" relation is shard-partitioned across the
// members per the placement, and member 0 additionally hosts the "join"
// pair and the "knn" store whole. The stack's data cloud hosts nothing
// of its own: it is the front door.
type clusterRig struct {
	*stack
	workloads
	members []*clusterMember
	front   *sectopk.DataCloud
}

// newClusterRig builds the fleet. placements[i] lists the global shard
// indices member i hosts; nil placements distributes the relation's
// shards round-robin across n members.
func newClusterRig(t testing.TB, n int, placements [][]int) *clusterRig {
	t.Helper()
	st := newStack(t, stackSpec{id: "topk", opts: []sectopk.Option{sectopk.WithShards(4)}, unhosted: true})
	r := &clusterRig{stack: st, workloads: newWorkloads(t, st), front: st.dc}
	if placements == nil {
		placements = make([][]int, n)
		for s := 0; s < st.er.Shards(); s++ {
			placements[s%n] = append(placements[s%n], s)
		}
	}
	var addrs []string
	for i, indices := range placements {
		m := newMember(t, st.cc, st.er, indices, nil, sectopk.WithMemberID(fmt.Sprintf("m%d", i)))
		if i == 0 {
			r.workloads.host(t, m.dc)
		}
		r.members = append(r.members, m)
		addrs = append(addrs, m.addr)
	}
	if err := r.front.HostCluster(context.Background(), addrs); err != nil {
		t.Fatalf("HostCluster(%d nodes): %v", len(addrs), err)
	}
	return r
}

// singleReference hosts the full relation on one data cloud sharing the
// rig's crypto cloud — the oracle cluster answers must match.
func (r *clusterRig) singleReference(t testing.TB) *sectopk.DataCloud {
	t.Helper()
	dc := newDataCloud(t, r.cc, nil)
	if err := dc.Host(context.Background(), "topk", r.er); err != nil {
		t.Fatal(err)
	}
	return dc
}

// TestClusterRevealedEquivalence pins the tentpole guarantee: for every
// fleet size, cluster answers for all three workloads are
// revealed-identical to a single node hosting everything.
func TestClusterRevealedEquivalence(t *testing.T) {
	ctx := context.Background()
	sizes := []int{1, 2, 4}
	if testing.Short() {
		sizes = []int{2}
	}
	queries := []sectopk.Query{
		{Attrs: []int{0, 1, 2}, K: 2},
		{Attrs: []int{0, 1}, K: 3},
	}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			r := newClusterRig(t, n, nil)
			single := r.singleReference(t)
			for _, q := range queries {
				want := runSession(t, r.owner, single, "topk", r.er, q)
				got := runSession(t, r.owner, r.front, "topk", r.er, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %+v: cluster %+v != single %+v", q, got, want)
				}
			}

			// Whole-relation workloads forward to the hosting member and
			// stay oracle-correct.
			jq := demoJoinQuery()
			jtk, err := r.jowner.Token(r.jr1, r.jr2, jq)
			if err != nil {
				t.Fatal(err)
			}
			jans, err := r.front.Execute(ctx, sectopk.JoinRequest("join", jtk))
			if err != nil {
				t.Fatalf("cluster join Execute: %v", err)
			}
			gotJoin, err := r.jowner.Reveal(jans.Join)
			if err != nil {
				t.Fatal(err)
			}
			j1, j2 := joinRelations()
			wantJoin, err := sectopk.PlainTopKJoin(j1, j2, jq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotJoin, wantJoin) {
				t.Fatalf("cluster join = %+v, want %+v", gotJoin, wantJoin)
			}

			ktk, err := r.owner.KNNToken(r.ker, sectopk.KNNQuery{Point: []int64{5, 5, 5}, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			kans, err := r.front.Execute(ctx, sectopk.KNNRequest("knn", ktk))
			if err != nil {
				t.Fatalf("cluster knn Execute: %v", err)
			}
			gotKNN, err := r.owner.RevealKNN(r.ker, kans.KNN)
			if err != nil {
				t.Fatal(err)
			}
			wantKNN, err := sectopk.PlainKNN(demoRelation(), []int64{5, 5, 5}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotKNN, wantKNN) {
				t.Fatalf("cluster knn = %+v, want %+v", gotKNN, wantKNN)
			}
		})
	}
}

// TestClusterEpochPinAndReadOnly pins the front door's consistency
// surface: Epoch reports the placement's pin, a mismatched WithEpoch
// fails typed-stale, and mutations are rejected at the front door.
func TestClusterEpochPinAndReadOnly(t *testing.T) {
	ctx := context.Background()
	r := newClusterRig(t, 2, nil)
	epoch, err := r.front.Epoch("topk")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != r.er.Epoch() {
		t.Fatalf("front-door epoch %d, relation epoch %d", epoch, r.er.Epoch())
	}
	tk := r.token(t, sectopk.Query{Attrs: []int{0}, K: 1})
	if _, err := r.front.Execute(ctx, sectopk.TopKRequest("topk", tk, sectopk.WithEpoch(epoch+7))); !errors.Is(err, sectopk.ErrRelationStale) {
		t.Fatalf("mismatched pin: err = %v, want ErrRelationStale", err)
	}
	if _, err := r.front.Execute(ctx, sectopk.TopKRequest("topk", tk, sectopk.WithEpoch(epoch))); err != nil {
		t.Fatalf("matching pin: %v", err)
	}
	if _, err := r.front.Compact(ctx, "topk"); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("Compact on cluster relation: err = %v, want ErrBadRequest", err)
	}
	// Workload mismatch resolves against the cluster registries too.
	if _, err := r.front.Execute(ctx, sectopk.KNNRequest("topk", &sectopk.KNNToken{})); !errors.Is(err, sectopk.ErrInvalidToken) && !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("workload mismatch: err = %v", err)
	}
	// The cluster surfaces through the hosting inventory.
	hosted := r.front.Hosted()
	for _, want := range []string{"topk", "join", "knn"} {
		found := false
		for _, id := range hosted {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Hosted() = %v, missing %q", hosted, want)
		}
	}
	if err := r.front.ClusterReachable(ctx); err != nil {
		t.Fatalf("ClusterReachable with live fleet: %v", err)
	}
	if err := r.front.HostCluster(ctx, []string{r.members[0].addr}); !errors.Is(err, sectopk.ErrRelationExists) {
		t.Fatalf("second HostCluster: err = %v, want ErrRelationExists", err)
	}
}

// TestClusterKillMemberMidQuery pins failure semantics: with a member
// down, cluster queries finish correct or fail typed (ErrUnavailable /
// ErrTransport) — never hang — and teardown leaks no goroutines.
func TestClusterKillMemberMidQuery(t *testing.T) {
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	r := newClusterRig(t, 2, nil)
	tk := r.token(t, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	// Warm query proves the fleet works.
	if _, err := r.front.Execute(ctx, sectopk.TopKRequest("topk", tk)); err != nil {
		t.Fatalf("pre-kill Execute: %v", err)
	}
	// Kill member 1 mid-query: fire the query, then tear the member down
	// while it is (likely) executing.
	type outcome struct {
		ans *sectopk.Answer
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ans, err := r.front.Execute(ctx, sectopk.TopKRequest("topk", tk))
		done <- outcome{ans, err}
	}()
	time.Sleep(10 * time.Millisecond)
	r.members[1].stop()
	r.members[1].dc.Close()
	select {
	case out := <-done:
		if out.err != nil {
			if !errors.Is(out.err, sectopk.ErrUnavailable) && !errors.Is(out.err, sectopk.ErrTransport) {
				t.Fatalf("mid-kill query failed untyped: %v", out.err)
			}
		} else if got, err := r.owner.Reveal(r.er, out.ans.TopK); err != nil || len(got) != 2 {
			t.Fatalf("mid-kill query answered wrong: %v (err %v)", got, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster query hung after member death")
	}
	// Every query after the kill fails typed, promptly.
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_, err := r.front.Execute(qctx, sectopk.TopKRequest("topk", tk))
	if !errors.Is(err, sectopk.ErrUnavailable) && !errors.Is(err, sectopk.ErrTransport) {
		t.Fatalf("post-kill query: err = %v, want ErrUnavailable or ErrTransport", err)
	}
	if err := r.front.ClusterReachable(ctx); err == nil {
		t.Fatal("ClusterReachable reports a dead member as reachable")
	}
	// Full teardown leaks nothing.
	r.front.Close()
	for _, m := range r.members {
		m.stop()
		m.dc.Close()
	}
	r.cc.Close()
	waitForGoroutines(t, baseline+2)
}

// TestShardSubsetLifecycle pins a member's share as the one top-k
// artifact: cutting, persistence through the relation's own file, the
// placement validation, Host's refusal, and the member-side handoff.
func TestShardSubsetLifecycle(t *testing.T) {
	ctx := context.Background()
	st := newStack(t, stackSpec{opts: []sectopk.Option{sectopk.WithShards(4), sectopk.WithMemberID("m0")}, unhosted: true})
	owner, er, dc := st.owner, st.er, st.dc
	if _, err := er.Subset(); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("empty subset: err = %v", err)
	}
	if _, err := er.Subset(0, 4); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("out-of-range subset: err = %v", err)
	}
	if _, err := er.Subset(1, 1); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("duplicate subset: err = %v", err)
	}
	sub, err := er.Subset(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// demoRelation's five rows sit round-robin on four shards: 1 and 3
	// hold one row each.
	if sub.Shards() != 2 || sub.Rows() != 2 || sub.Epoch() != 1 {
		t.Fatalf("share shape: shards=%d rows=%d epoch=%d", sub.Shards(), sub.Rows(), sub.Epoch())
	}
	// A share is not a whole relation: the owner cannot open it for
	// mutation, even with a plaintext of its row count.
	if _, err := owner.NewMutable(&sectopk.Relation{Name: "demo", Rows: [][]int64{{8, 8, 0}, {3, 2, 8}}}, sub); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("NewMutable of a share: err = %v, want ErrBadRequest", err)
	}
	// A share's indices are global: it cuts again from what it holds.
	if _, err := sub.Subset(0); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("share cut at an index it does not hold: err = %v", err)
	}
	if again, err := sub.Subset(3); err != nil || again.Rows() != 1 {
		t.Fatalf("share cut at an index it holds: %v", err)
	}
	path := t.TempDir() + "/subset.er"
	if err := sub.Save(path); err != nil {
		t.Fatal(err)
	}
	sub2, err := sectopk.LoadEncryptedRelation(path)
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Shards() != sub.Shards() || sub2.Rows() != sub.Rows() || sub2.Epoch() != sub.Epoch() {
		t.Fatalf("reloaded share changed: shards=%d rows=%d epoch=%d", sub2.Shards(), sub2.Rows(), sub2.Epoch())
	}

	// A share is not a whole relation: Host refuses it before any round.
	if err := dc.Host(ctx, "demo", sub2); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("Host of a share: err = %v, want ErrBadRequest", err)
	}
	if err := dc.HostShards(ctx, "demo", sub2); err != nil {
		t.Fatalf("HostShards: %v", err)
	}
	// The placement came through the file.
	if got := dc.HostedShardSubsets(); !reflect.DeepEqual(got["demo"], []int{1, 3}) {
		t.Fatalf("HostedShardSubsets = %v", got)
	}
	if dc.MemberID() != "m0" {
		t.Fatalf("MemberID = %q", dc.MemberID())
	}
	// Re-hosting the same id is a handoff: the subset swaps in place.
	bigger, err := er.Subset(0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.HostShards(ctx, "demo", bigger); err != nil {
		t.Fatalf("handoff HostShards: %v", err)
	}
	if got := dc.HostedShardSubsets(); !reflect.DeepEqual(got["demo"], []int{0, 1, 3}) {
		t.Fatalf("post-handoff subsets = %v", got)
	}
	// A subset under foreign key material is rejected at handoff.
	other, err := sectopk.NewOwner(testOpts(sectopk.WithShards(4))...)
	if err != nil {
		t.Fatal(err)
	}
	erOther, err := other.Encrypt(demoRelation())
	if err != nil {
		t.Fatal(err)
	}
	subOther, err := erOther.Subset(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.HostShards(ctx, "demo", subOther); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("foreign-key handoff: err = %v, want ErrBadRequest", err)
	}
	// The id collides with every other registry.
	if err := dc.Host(ctx, "demo", er); !errors.Is(err, sectopk.ErrRelationExists) {
		t.Fatalf("Host over shard subset id: err = %v, want ErrRelationExists", err)
	}
}

// TestShardSubsetHandoffEpoch pins a member's share as a top-k entry at
// its subset's epoch. Epoch reports the epoch the subset was cut at, also
// after a handoff to a subset cut at a later epoch. Apply and Compact on
// the share fail typed. A front-door query racing handoffs of one
// member's subset to the same indices answers the single-node result or
// fails typed.
func TestShardSubsetHandoffEpoch(t *testing.T) {
	ctx := context.Background()
	r := newClusterRig(t, 2, nil)
	member := r.members[0].dc
	indices := member.HostedShardSubsets()["topk"]
	sub, err := r.er.Subset(indices...)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, err := member.Epoch("topk"); err != nil || epoch != sub.Epoch() {
		t.Fatalf("member Epoch = %d, %v; want the subset's epoch %d", epoch, err, sub.Epoch())
	}

	single := r.singleReference(t)
	tk := r.token(t, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	wantAns, err := single.Execute(ctx, sectopk.TopKRequest("topk", tk))
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.owner.Reveal(r.er, wantAns.TopK)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	handed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				handed <- nil
				return
			default:
			}
			if err := member.HostShards(ctx, "topk", sub); err != nil {
				handed <- err
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		ans, err := r.front.Execute(ctx, sectopk.TopKRequest("topk", tk))
		if err != nil {
			if code := secerr.CodeOf(err); code == secerr.CodeInternal {
				t.Errorf("front-door query during a handoff failed untyped: %v", err)
			}
			continue
		}
		got, err := r.owner.Reveal(r.er, ans.TopK)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("front-door query during a handoff = %+v, single node = %+v", got, want)
		}
	}
	close(stop)
	if err := <-handed; err != nil {
		t.Fatalf("handoff to the same indices: %v", err)
	}

	mr, err := r.owner.NewMutable(demoRelation(), r.er)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := mr.UpdateScores(map[int][]int64{0: {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := member.Apply(ctx, "topk", delta); !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("Apply on a shard subset: err = %v, want ErrUnknownRelation", err)
	}
	if _, err := member.Compact(ctx, "topk"); !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("Compact on a shard subset: err = %v, want ErrUnknownRelation", err)
	}
	if epoch, err := single.Apply(ctx, "topk", delta); err != nil || epoch != 2 {
		t.Fatalf("Apply on the whole relation = %d, %v; want epoch 2", epoch, err)
	}
	er2, err := mr.Encrypted()
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := er2.Subset(indices...)
	if err != nil {
		t.Fatal(err)
	}
	if err := member.HostShards(ctx, "topk", sub2); err != nil {
		t.Fatalf("handoff to the epoch-2 subset: %v", err)
	}
	if epoch, err := member.Epoch("topk"); err != nil || epoch != sub2.Epoch() || epoch != 2 {
		t.Fatalf("member Epoch after handoff = %d, %v; want the subset's epoch %d", epoch, err, sub2.Epoch())
	}
}

// TestFrontDoorFollowsEpoch: the owner moves the relation to epoch 2 with
// an UpdateScores delta, whose delete leaves a tombstone tail, and hands
// every member its share cut at epoch 2 through the share's file. The
// front door, assembled at epoch 1, follows the members without a second
// HostCluster: its next query answers epoch 2's plaintext oracle and
// Epoch reports 2. A placement that then mixes epochs fails typed stale.
func TestFrontDoorFollowsEpoch(t *testing.T) {
	ctx := context.Background()
	r := newClusterRig(t, 2, nil)
	q := sectopk.Query{Attrs: []int{0, 1, 2}, K: 2}
	tk := r.token(t, q)
	if _, err := r.front.Execute(ctx, sectopk.TopKRequest("topk", tk)); err != nil {
		t.Fatal(err)
	}
	mr, err := r.owner.NewMutable(demoRelation(), r.er)
	if err != nil {
		t.Fatal(err)
	}
	single := r.singleReference(t)
	// Row 4 climbs from last place to first.
	delta, err := mr.UpdateScores(map[int][]int64{4: {9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if epoch, err := single.Apply(ctx, "topk", delta); err != nil || epoch != 2 || mr.DeadRows() != 1 {
		t.Fatalf("Apply = %d, %v with %d dead rows; want epoch 2 and one dead row", epoch, err, mr.DeadRows())
	}
	// handOff gives every member in ms its share of the owner's current
	// relation, through the share's file.
	dir := t.TempDir()
	handOff := func(ms ...*clusterMember) {
		t.Helper()
		er, err := mr.Encrypted()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			sub, err := er.Subset(m.dc.HostedShardSubsets()["topk"]...)
			if err != nil {
				t.Fatal(err)
			}
			path := dir + "/" + m.addr + ".er"
			if err := sub.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := sectopk.LoadEncryptedRelation(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.dc.HostShards(ctx, "topk", loaded); err != nil {
				t.Fatal(err)
			}
			if epoch, err := m.dc.Epoch("topk"); err != nil || epoch != mr.Epoch() {
				t.Fatalf("member Epoch = %d, %v; want %d", epoch, err, mr.Epoch())
			}
		}
	}
	handOff(r.members...)
	tk2, err := mr.Token(q)
	if err != nil {
		t.Fatal(err)
	}
	// Several queries meet the stale placement at once; each answers
	// epoch 2.
	answers := make([]*sectopk.Answer, 3)
	errs := make([]error, len(answers))
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = r.front.Execute(ctx, sectopk.TopKRequest("topk", tk2))
		}()
	}
	wg.Wait()
	er2, err := mr.Encrypted()
	if err != nil {
		t.Fatal(err)
	}
	rows := demoRelation().Rows
	rows[4] = []int64{9, 9, 9}
	want := wantTopK(t, rows, q)
	for i, ans := range answers {
		if errs[i] != nil {
			t.Fatalf("front-door query after the members moved to epoch 2: %v", errs[i])
		}
		got, err := r.owner.Reveal(er2, ans.TopK)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || ans.Traffic.Epoch != 2 {
			t.Fatalf("front door at epoch %d answered %+v, epoch 2's oracle is %+v", ans.Traffic.Epoch, got, want)
		}
	}
	if epoch, err := r.front.Epoch("topk"); err != nil || epoch != 2 {
		t.Fatalf("front-door Epoch = %d, %v; want 2", epoch, err)
	}
	// Member 0 alone moves on to epoch 3.
	epoch, err := single.Compact(ctx, "topk")
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.Adopt(epoch); err != nil {
		t.Fatal(err)
	}
	handOff(r.members[0])
	if _, err := r.front.Execute(ctx, sectopk.TopKRequest("topk", tk2)); !errors.Is(err, sectopk.ErrRelationStale) {
		t.Fatalf("front-door query over members at epochs 3 and 2: err = %v, want ErrRelationStale", err)
	}
}

// TestHostClusterPlacementGap pins that a fleet whose subsets do not
// tile the relation is rejected at assembly, naming the unhosted shards.
func TestHostClusterPlacementGap(t *testing.T) {
	ctx := context.Background()
	// The stack's data cloud hosts nothing: it is the front door.
	st := newStack(t, stackSpec{id: "topk", opts: []sectopk.Option{sectopk.WithShards(4)}, unhosted: true})
	front := st.dc
	member := newMember(t, st.cc, st.er, []int{0, 2}, nil, sectopk.WithMemberID("m0"))
	err := front.HostCluster(ctx, []string{member.addr})
	if err == nil || !strings.Contains(err.Error(), "unhosted") {
		t.Fatalf("gap placement accepted: err = %v", err)
	}
	// A dead address fails typed-unavailable.
	l := loopback(t)
	dead := l.Addr().String()
	l.Close()
	if err := front.HostCluster(ctx, []string{dead}); !errors.Is(err, sectopk.ErrUnavailable) {
		t.Fatalf("dead member dial: err = %v, want ErrUnavailable", err)
	}
}

// sixKindRig is one data cloud holding an id of every hosted kind: the
// cluster rig's front door (coordinated "topk", routed "join" and "knn")
// additionally hosting a top-k relation, a join pair, a kNN store and a
// shard subset locally.
type sixKindRig struct {
	*clusterRig
	sub *sectopk.EncryptedRelation
	// ids maps each kind's name, as error messages spell it, to the id
	// hosted as that kind; serves is the workload that kind answers.
	ids    map[string]string
	serves map[string]sectopk.Workload
}

func newSixKindRig(t testing.TB) *sixKindRig {
	t.Helper()
	ctx := context.Background()
	r := newClusterRig(t, 1, nil)
	for id, keys := range map[string]*sectopk.Keys{
		"t": r.owner.Keys(), "k": r.owner.Keys(), "s": r.owner.Keys(), "j": r.jowner.Keys(),
	} {
		if err := r.cc.Register(id, keys); err != nil {
			t.Fatalf("Register %s: %v", id, err)
		}
	}
	sub, err := r.er.Subset(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.front.Host(ctx, "t", r.er); err != nil {
		t.Fatal(err)
	}
	if err := r.front.HostJoin(ctx, "j", r.jr1, r.jr2); err != nil {
		t.Fatal(err)
	}
	if err := r.front.HostKNN(ctx, "k", r.ker); err != nil {
		t.Fatal(err)
	}
	if err := r.front.HostShards(ctx, "s", sub); err != nil {
		t.Fatal(err)
	}
	return &sixKindRig{
		clusterRig: r, sub: sub,
		ids: map[string]string{
			"top-k relation": "t", "join pair": "j", "kNN store": "k", "shard subset": "s",
			"cluster-coordinated relation": "topk", "cluster-routed relation": "join",
		},
		serves: map[string]sectopk.Workload{
			"top-k relation": sectopk.WorkloadTopK, "join pair": sectopk.WorkloadJoin,
			"kNN store": sectopk.WorkloadKNN, "shard subset": sectopk.WorkloadTopK,
			"cluster-coordinated relation": sectopk.WorkloadTopK, "cluster-routed relation": sectopk.WorkloadJoin,
		},
	}
}

// TestHostNamespace pins that hosted ids share one namespace and that a
// clash is found before anything is spent on it: under an id taken by any
// of the six kinds, every Host* fails ErrRelationExists without an S2
// round, and a front door whose members announce a taken id refuses the
// placement after the member Hellos but before preparing a coordinator.
func TestHostNamespace(t *testing.T) {
	ctx := context.Background()
	r := newSixKindRig(t)
	// announced is the id the rig's member announces with the matching key
	// material, for the front-door half below.
	hosts := []struct {
		name, announced string
		host            func(dc *sectopk.DataCloud, id string) error
	}{
		{"Host", "topk", func(dc *sectopk.DataCloud, id string) error { return dc.Host(ctx, id, r.er) }},
		{"HostJoin", "join", func(dc *sectopk.DataCloud, id string) error { return dc.HostJoin(ctx, id, r.jr1, r.jr2) }},
		{"HostKNN", "knn", func(dc *sectopk.DataCloud, id string) error { return dc.HostKNN(ctx, id, r.ker) }},
		{"HostShards", "topk", func(dc *sectopk.DataCloud, id string) error { return dc.HostShards(ctx, id, r.sub) }},
	}
	for kind, id := range r.ids {
		for _, h := range hosts {
			if h.name == "HostShards" && kind == "shard subset" {
				continue // re-hosting a subset id is a handoff, not a clash
			}
			before := r.front.Traffic().Rounds
			err := h.host(r.front, id)
			if !errors.Is(err, sectopk.ErrRelationExists) {
				t.Errorf("%s over the %s id %q: err = %v, want ErrRelationExists", h.name, kind, id, err)
			}
			if spent := r.front.Traffic().Rounds - before; spent != 0 {
				t.Errorf("%s over the %s id %q spent %d round(s) before refusing", h.name, kind, id, spent)
			}
		}
	}

	// The member announces "topk" sharded and "join"/"knn" whole. A data
	// cloud already holding one of those ids, as any local kind, cannot
	// become its front door; the only rounds it spends are the member's
	// cluster Hello (member links share the data cloud's counters).
	member := []string{r.members[0].addr}
	for _, h := range hosts {
		dc := newDataCloud(t, r.cc, nil)
		if err := h.host(dc, h.announced); err != nil {
			t.Fatalf("%s %q on a fresh data cloud: %v", h.name, h.announced, err)
		}
		before := dc.Traffic().Rounds
		if err := dc.HostCluster(ctx, member); !errors.Is(err, sectopk.ErrRelationExists) {
			t.Errorf("HostCluster over an id taken by %s: err = %v, want ErrRelationExists", h.name, err)
		}
		if spent := dc.Traffic().Rounds - before; spent != int64(len(member)) {
			t.Errorf("HostCluster over an id taken by %s spent %d round(s), want %d (the member Hello)", h.name, spent, len(member))
		}
		if nodes := dc.ClusterNodes(); nodes != nil {
			t.Errorf("refused HostCluster left a cluster behind: %v", nodes)
		}
	}
}
