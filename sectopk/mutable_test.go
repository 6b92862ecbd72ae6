package sectopk_test

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/sectopk"
)

// mutationRig is a live-update test bed: the in-process clouds hosting
// one relation, the owner's mutable handle on it, and the plaintext
// oracle the encrypted answers must match.
type mutationRig struct {
	owner  *sectopk.Owner
	cc     *sectopk.CryptoCloud
	dc     *sectopk.DataCloud
	mr     *sectopk.MutableRelation
	oracle map[int][]int64
	nextID int
}

// newMutationRig stands the stack up over p shards with n random rows
// of m attributes.
func newMutationRig(t testing.TB, p, n, m int, rng *rand.Rand) *mutationRig {
	t.Helper()
	ctx := context.Background()
	rel := &sectopk.Relation{Name: "mut", Rows: randomRows(rng, n, m)}
	owner, err := sectopk.NewOwner(testOpts(sectopk.WithShards(p))...)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	er, err := owner.Encrypt(rel)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	mr, err := owner.NewMutable(rel, er)
	if err != nil {
		t.Fatalf("NewMutable: %v", err)
	}
	cc := sectopk.NewCryptoCloud(testOpts()...)
	t.Cleanup(cc.Close)
	if err := cc.Register("mut", owner.Keys()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	dc := sectopk.NewDataCloud(testOpts()...)
	t.Cleanup(dc.Close)
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatalf("ConnectLocal: %v", err)
	}
	if err := dc.Host(ctx, "mut", er); err != nil {
		t.Fatalf("Host: %v", err)
	}
	oracle := make(map[int][]int64, n)
	for i, row := range rel.Rows {
		oracle[i] = append([]int64(nil), row...)
	}
	return &mutationRig{owner: owner, cc: cc, dc: dc, mr: mr, oracle: oracle, nextID: n}
}

// close tears both clouds down now, for a test that counts goroutines
// before its cleanups run. Closing twice is safe.
func (r *mutationRig) close() {
	r.dc.Close()
	r.cc.Close()
}

// randomRows draws scores small enough to stay far from the score-bit
// bound yet spread enough that aggregate ties are rare.
func randomRows(rng *rand.Rand, n, m int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, m)
		for j := range rows[i] {
			rows[i][j] = int64(rng.Intn(1000))
		}
	}
	return rows
}

// oracleTopK computes the plaintext answer: aggregate score over attrs,
// descending, k best.
func oracleTopK(rows map[int][]int64, attrs []int, k int) []sectopk.Result {
	type sr struct {
		id    int
		score int64
	}
	all := make([]sr, 0, len(rows))
	for id, row := range rows {
		var s int64
		for _, a := range attrs {
			s += row[a]
		}
		all = append(all, sr{id, s})
	}
	sort.Slice(all, func(x, y int) bool {
		if all[x].score != all[y].score {
			return all[x].score > all[y].score
		}
		return all[x].id < all[y].id
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]sectopk.Result, len(all))
	for i, e := range all {
		out[i] = sectopk.Result{Object: e.id, Score: e.score}
	}
	return out
}

// sameTopK compares answers up to tie order: scores must match
// positionally, and within each equal-score run the object sets must
// match (the protocol does not promise a tie order).
func sameTopK(got, want []sectopk.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			return false
		}
	}
	for i := 0; i < len(got); {
		j := i
		for j < len(got) && got[j].Score == got[i].Score {
			j++
		}
		g := map[int]bool{}
		w := map[int]bool{}
		for x := i; x < j; x++ {
			g[got[x].Object] = true
			w[want[x].Object] = true
		}
		for id := range g {
			if !w[id] {
				return false
			}
		}
		i = j
	}
	return true
}

// checkEquivalence runs one top-k query at the current epoch and
// compares the revealed answer against the plaintext oracle.
func (r *mutationRig) checkEquivalence(t *testing.T, attrs []int, k int) {
	t.Helper()
	tk, err := r.mr.Token(sectopk.Query{Attrs: attrs, K: k})
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	ans, err := r.dc.Execute(context.Background(), sectopk.TopKRequest("mut", tk,
		sectopk.WithHalting(sectopk.HaltingStrict)))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	erv, err := r.mr.Encrypted()
	if err != nil {
		t.Fatalf("Encrypted: %v", err)
	}
	got, err := r.owner.Reveal(erv, ans.TopK)
	if err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	want := oracleTopK(r.oracle, attrs, k)
	if !sameTopK(got, want) {
		t.Fatalf("epoch %d: top-%d over %v = %+v, oracle says %+v", r.mr.Epoch(), k, attrs, got, want)
	}
}

// ship lands one delta on the data cloud and synchronizes the owner.
func (r *mutationRig) ship(t *testing.T, d *sectopk.Delta) {
	t.Helper()
	epoch, err := r.dc.Apply(context.Background(), "mut", d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := r.mr.Adopt(epoch); err != nil {
		t.Fatalf("Adopt(%d): %v", epoch, err)
	}
}

// liveIDs returns the oracle's ids, sorted for deterministic draws.
func (r *mutationRig) liveIDs() []int {
	ids := make([]int, 0, len(r.oracle))
	for id := range r.oracle {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// mutateRandomly performs one random mutation (insert, delete, update,
// or compact), keeping oracle and encrypted state in lockstep.
func (r *mutationRig) mutateRandomly(t *testing.T, rng *rand.Rand, m int) {
	t.Helper()
	switch op := rng.Intn(4); {
	case op == 0: // insert 1-2 rows
		rows := randomRows(rng, 1+rng.Intn(2), m)
		d, err := r.mr.InsertRows(rows)
		if err != nil {
			t.Fatalf("InsertRows: %v", err)
		}
		r.ship(t, d)
		for _, row := range rows {
			r.oracle[r.nextID] = append([]int64(nil), row...)
			r.nextID++
		}
	case op == 1 && len(r.oracle) > 5: // delete 1-2 rows
		ids := r.liveIDs()
		n := 1 + rng.Intn(2)
		del := make([]int, 0, n)
		for _, i := range rng.Perm(len(ids))[:n] {
			del = append(del, ids[i])
		}
		d, err := r.mr.DeleteRows(del)
		if err != nil {
			t.Fatalf("DeleteRows(%v): %v", del, err)
		}
		r.ship(t, d)
		for _, id := range del {
			delete(r.oracle, id)
		}
	case op == 2: // update 1-2 rows
		ids := r.liveIDs()
		n := 1 + rng.Intn(2)
		upd := make(map[int][]int64, n)
		for _, i := range rng.Perm(len(ids))[:n] {
			upd[ids[i]] = randomRows(rng, 1, m)[0]
		}
		d, err := r.mr.UpdateScores(upd)
		if err != nil {
			t.Fatalf("UpdateScores: %v", err)
		}
		r.ship(t, d)
		for id, row := range upd {
			r.oracle[id] = append([]int64(nil), row...)
		}
	default: // compact (also the fallthrough when a delete would go too small)
		epoch, err := r.dc.Compact(context.Background(), "mut")
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if err := r.mr.Adopt(epoch); err != nil {
			t.Fatalf("Adopt(%d): %v", epoch, err)
		}
	}
}

// TestMutationOracleEquivalence interleaves random inserts, deletes,
// score updates, and compactions, and checks after every landed epoch
// that the revealed encrypted top-k equals the plaintext oracle — for
// an unsharded relation and for sharded ones.
func TestMutationOracleEquivalence(t *testing.T) {
	for _, tc := range []struct {
		p    int
		seed int64
	}{{1, 11}, {2, 22}, {4, 44}} {
		tc := tc
		t.Run(shardName(tc.p), func(t *testing.T) {
			t.Parallel()
			const m = 3
			rng := rand.New(rand.NewSource(tc.seed))
			rig := newMutationRig(t, tc.p, 8, m, rng)
			rig.checkEquivalence(t, []int{0, 1, 2}, 3)
			attrSets := [][]int{{0, 1, 2}, {0, 1}, {2}}
			for step := 0; step < 5; step++ {
				rig.mutateRandomly(t, rng, m)
				rig.checkEquivalence(t, attrSets[step%len(attrSets)], 3)
			}
			if rig.mr.Epoch() < 2 {
				t.Fatalf("mutation script advanced no epochs (epoch %d)", rig.mr.Epoch())
			}
		})
	}
}

func shardName(p int) string {
	return map[int]string{1: "P=1", 2: "P=2", 4: "P=4"}[p]
}

// TestMutationEpochFencing pins queries and deltas to epochs and checks
// every skew fails typed — plus that replaying a landed delta is
// exactly-once.
func TestMutationEpochFencing(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	rig := newMutationRig(t, 2, 8, 3, rng)

	// Two deltas produced in sequence target epochs 1 and 2; shipping the
	// second first must fail stale and change nothing.
	d1, err := rig.mr.InsertRows(randomRows(rng, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := rig.mr.DeleteRows([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.dc.Apply(ctx, "mut", d2); !errors.Is(err, sectopk.ErrRelationStale) {
		t.Fatalf("out-of-order Apply err = %v, want ErrRelationStale", err)
	}
	epoch, err := rig.dc.Apply(ctx, "mut", d1)
	if err != nil {
		t.Fatalf("Apply(d1): %v", err)
	}
	if epoch != 2 {
		t.Fatalf("Apply(d1) -> epoch %d, want 2", epoch)
	}
	// Exactly-once: replaying d1 reports the recorded epoch without
	// moving the relation.
	again, err := rig.dc.Apply(ctx, "mut", d1)
	if err != nil || again != epoch {
		t.Fatalf("replay Apply(d1) = (%d, %v), want (%d, nil)", again, err, epoch)
	}
	if got, _ := rig.dc.Epoch("mut"); got != 2 {
		t.Fatalf("epoch after replay = %d, want 2", got)
	}
	// Now d2 lands in order.
	if epoch, err = rig.dc.Apply(ctx, "mut", d2); err != nil || epoch != 3 {
		t.Fatalf("Apply(d2) = (%d, %v), want (3, nil)", epoch, err)
	}
	if err := rig.mr.Adopt(3); err != nil {
		t.Fatalf("Adopt(3): %v", err)
	}

	// A query pinned to a gone epoch fails typed; pinned to the current
	// one it runs.
	tk, err := rig.mr.Token(sectopk.Query{Attrs: []int{0, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rig.dc.Execute(ctx, sectopk.TopKRequest("mut", tk, sectopk.WithEpoch(1)))
	if !errors.Is(err, sectopk.ErrRelationStale) {
		t.Fatalf("pinned-stale Execute err = %v, want ErrRelationStale", err)
	}
	if _, err := rig.dc.Execute(ctx, sectopk.TopKRequest("mut", tk, sectopk.WithEpoch(3))); err != nil {
		t.Fatalf("pinned-current Execute: %v", err)
	}

	// An adoption the owner cannot replay (epoch jumped past compaction
	// range) fails typed.
	if err := rig.mr.Adopt(9); !errors.Is(err, sectopk.ErrRelationStale) {
		t.Fatalf("Adopt(9) err = %v, want ErrRelationStale", err)
	}
}

// TestMutationWrongWorkload checks Apply against join- and kNN-hosted
// ids fails typed, naming the hosted kind — those relations are
// encrypt-once.
func TestMutationWrongWorkload(t *testing.T) {
	ctx := context.Background()
	rig := newFullRig(t)
	rel := demoRelation()
	mr, err := rig.owner.NewMutable(rel, rig.er)
	if err != nil {
		t.Fatal(err)
	}
	d, err := mr.DeleteRows([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"join", "knn", "ghost"} {
		if _, err := rig.dc.Apply(ctx, id, d); !errors.Is(err, sectopk.ErrUnknownRelation) {
			t.Fatalf("Apply(%q) err = %v, want ErrUnknownRelation", id, err)
		}
	}
	if _, err := rig.dc.Apply(ctx, "topk", nil); !errors.Is(err, sectopk.ErrBadRequest) {
		t.Fatalf("Apply(nil) err = %v, want ErrBadRequest", err)
	}
}

// TestMutablePersistence saves and reloads every mutable artifact
// mid-history: the owner bundle resumes producing deltas at the right
// epoch, and an epoch-stamped hosted bundle re-hosts with its mutation
// state (epoch, tombstones, id space) intact.
func TestMutablePersistence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	rig := newMutationRig(t, 2, 8, 3, rng)
	dir := t.TempDir()

	// Advance one epoch (an update leaves tombstones behind), then save
	// both owner and hosted artifacts.
	d, err := rig.mr.UpdateScores(map[int][]int64{3: {900, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rig.ship(t, d)
	rig.oracle[3] = []int64{900, 1, 1}

	mirror := filepath.Join(dir, "mut.mr")
	if err := rig.mr.Save(mirror); err != nil {
		t.Fatalf("mirror Save: %v", err)
	}
	erv, err := rig.mr.Encrypted()
	if err != nil {
		t.Fatal(err)
	}
	hosted := filepath.Join(dir, "mut.er")
	if err := erv.Save(hosted); err != nil {
		t.Fatalf("hosted Save: %v", err)
	}

	// The reloaded owner handle continues the history: same epoch, and
	// the next delta chains onto it.
	mr2, err := rig.owner.LoadMutable(mirror)
	if err != nil {
		t.Fatalf("LoadMutable: %v", err)
	}
	if mr2.Epoch() != rig.mr.Epoch() {
		t.Fatalf("reloaded epoch = %d, want %d", mr2.Epoch(), rig.mr.Epoch())
	}
	if mr2.LiveRows() != len(rig.oracle) {
		t.Fatalf("reloaded live rows = %d, want %d", mr2.LiveRows(), len(rig.oracle))
	}
	d2, err := mr2.InsertRows([][]int64{{5, 5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := rig.dc.Apply(ctx, "mut", d2)
	if err != nil {
		t.Fatalf("Apply(from reloaded owner): %v", err)
	}
	if err := mr2.Adopt(epoch); err != nil {
		t.Fatal(err)
	}
	rig.mr = mr2
	rig.oracle[rig.nextID] = []int64{5, 5, 5}
	rig.nextID++
	rig.checkEquivalence(t, []int{0, 1, 2}, 3)

	// The epoch-stamped hosted bundle round-trips with its state: a fresh
	// data cloud hosts it at the saved epoch and answers queries.
	er2, err := sectopk.LoadEncryptedRelation(hosted)
	if err != nil {
		t.Fatalf("LoadEncryptedRelation: %v", err)
	}
	if er2.Epoch() != 2 {
		t.Fatalf("reloaded hosted epoch = %d, want 2", er2.Epoch())
	}
	cc2 := sectopk.NewCryptoCloud(testOpts()...)
	t.Cleanup(cc2.Close)
	if err := cc2.Register("mut", rig.owner.Keys()); err != nil {
		t.Fatal(err)
	}
	dc2 := sectopk.NewDataCloud(testOpts()...)
	t.Cleanup(dc2.Close)
	if err := dc2.ConnectLocal(ctx, cc2); err != nil {
		t.Fatal(err)
	}
	if err := dc2.Host(ctx, "mut", er2); err != nil {
		t.Fatalf("re-Host: %v", err)
	}
	if epoch, err := dc2.Epoch("mut"); err != nil || epoch != 2 {
		t.Fatalf("re-hosted Epoch = (%d, %v), want (2, nil)", epoch, err)
	}
}

// TestMutationOverWire drives the full live-update loop across the
// client wire: Apply and Compact land remotely, the post-mutation query
// answers match the oracle, and the epoch pin round-trips.
func TestMutationOverWire(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	rig := newMutationRig(t, 2, 8, 3, rng)
	addr, _ := serveClients(t, rig.dc)
	client, err := sectopk.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	d, err := rig.mr.UpdateScores(map[int][]int64{0: {999, 999, 999}})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := client.Apply(ctx, "mut", d)
	if err != nil {
		t.Fatalf("client Apply: %v", err)
	}
	if err := rig.mr.Adopt(epoch); err != nil {
		t.Fatal(err)
	}
	rig.oracle[0] = []int64{999, 999, 999}

	// Retrying the landed delta over the wire is exactly-once too.
	if again, err := client.Apply(ctx, "mut", d); err != nil || again != epoch {
		t.Fatalf("wire replay = (%d, %v), want (%d, nil)", again, err, epoch)
	}

	// Remote query at the new epoch, pinned: stale pin fails typed, the
	// current pin answers per the oracle.
	tk, err := rig.mr.Token(sectopk.Query{Attrs: []int{0, 1, 2}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Execute(ctx, sectopk.TopKRequest("mut", tk, sectopk.WithEpoch(1)))
	if !errors.Is(err, sectopk.ErrRelationStale) {
		t.Fatalf("wire pinned-stale err = %v, want ErrRelationStale", err)
	}
	ans, err := client.Execute(ctx, sectopk.TopKRequest("mut", tk,
		sectopk.WithEpoch(epoch), sectopk.WithHalting(sectopk.HaltingStrict)))
	if err != nil {
		t.Fatalf("wire Execute: %v", err)
	}
	erv, err := rig.mr.Encrypted()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rig.owner.Reveal(erv, ans.TopK)
	if err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	if want := oracleTopK(rig.oracle, []int{0, 1, 2}, 3); !sameTopK(got, want) {
		t.Fatalf("wire top-3 = %+v, oracle says %+v", got, want)
	}

	// Remote compaction: the owner adopts the epoch it reports.
	cepoch, err := client.Compact(ctx, "mut")
	if err != nil {
		t.Fatalf("client Compact: %v", err)
	}
	if cepoch != epoch+1 {
		t.Fatalf("Compact -> epoch %d, want %d", cepoch, epoch+1)
	}
	if err := rig.mr.Adopt(cepoch); err != nil {
		t.Fatal(err)
	}
	if dead := rig.mr.DeadRows(); dead != 0 {
		t.Fatalf("DeadRows after wire compaction = %d, want 0", dead)
	}
	rig.checkEquivalence(t, []int{0, 1}, 2)
}
