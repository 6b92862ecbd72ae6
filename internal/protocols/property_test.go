package protocols

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/paillier"
)

// Property tests: the sub-protocols must agree with their plaintext
// semantics on randomized inputs. Sizes stay tiny because every check
// drives real two-party crypto.

// TestPropertySecWorstBest is the differential test of the fused
// worst/best routine: on random list prefixes drawn from a small object
// domain (so items share an object at the current depth, and objects have
// already appeared in other lists' histories), SecWorstBestDepths over
// the current depth must take one round and decrypt to
//
//	Seen_i = x_i + sum_{j != i} sum_{e <= d, o_j^e = o_i} x_j^e
//	B_i    = x_i + sum_{j != i} (o_i's score in L_j if seen there, else bottom_j)
//
// SecBestAll must return the same B, SecWorstAll Algorithm 4's
//
//	W_i = x_i + sum_{j != i, o_j^d = o_i} x_j^d
//
// and each Marks row must hold one bit per item after it, summing to its
// object's copies among them.
func TestPropertySecWorstBest(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		depth := 1 + rng.Intn(3)
		d := depth - 1
		// objsAt[j][d], scoresAt[j][d]: list j at depth d. Objects appear
		// at most once per list.
		objsAt := make([][]uint64, m)
		scoresAt := make([][]int64, m)
		hist := make([]ListHistory, m)
		items := make([]DepthItem, m)
		for j := 0; j < m; j++ {
			perm := rng.Perm(4)
			objsAt[j] = make([]uint64, depth)
			scoresAt[j] = make([]int64, depth)
			for at := 0; at < depth; at++ {
				objsAt[j][at] = uint64(perm[at])
				scoresAt[j][at] = int64(60 - 10*at - rng.Intn(5)) // descending-ish
				hist[j].EHLs = append(hist[j].EHLs, e.list(t, objsAt[j][at]))
				hist[j].Scores = append(hist[j].Scores, e.enc(t, scoresAt[j][at]))
			}
			items[j] = DepthItem{EHL: hist[j].EHLs[d], Score: hist[j].Scores[d]}
		}
		before := e.stats.Rounds()
		bounds, err := SecWorstBestDepths(ctx, e.client, [][]DepthItem{items}, hist)
		if err != nil {
			t.Logf("SecWorstBestDepths: %v", err)
			return false
		}
		if rounds := e.stats.Rounds() - before; rounds != 1 {
			t.Logf("seed %d: SecWorstBestDepths took %d rounds, want 1", seed, rounds)
			return false
		}
		got := bounds[0]
		worstOnly, err := SecWorstAll(ctx, e.client, items)
		if err != nil {
			t.Logf("SecWorstAll: %v", err)
			return false
		}
		bestOnly, err := SecBestAll(ctx, e.client, items, hist)
		if err != nil {
			t.Logf("SecBestAll: %v", err)
			return false
		}
		for i := 0; i < m; i++ {
			obj := objsAt[i][d]
			wantW, wantSeen, wantB := scoresAt[i][d], scoresAt[i][d], scoresAt[i][d]
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				if objsAt[j][d] == obj {
					wantW += scoresAt[j][d]
				}
				contrib := scoresAt[j][d] // bottom
				for at := 0; at < depth; at++ {
					if objsAt[j][at] == obj {
						contrib = scoresAt[j][at]
						wantSeen += scoresAt[j][at]
					}
				}
				wantB += contrib
			}
			gotSeen, gotB := e.dec(t, got.Seen[i]), e.dec(t, got.Best[i])
			if gotSeen != wantSeen || gotB != wantB {
				t.Logf("seed %d: item %d (Seen, B) = (%d, %d), want (%d, %d) (objs=%v scores=%v)",
					seed, i, gotSeen, gotB, wantSeen, wantB, objsAt, scoresAt)
				return false
			}
			if pw, pb := e.dec(t, worstOnly[i]), e.dec(t, bestOnly[i]); pw != wantW || pb != wantB {
				t.Logf("seed %d: item %d halves (W, B) = (%d, %d), want (%d, %d)", seed, i, pw, pb, wantW, wantB)
				return false
			}
		}
		if len(got.Marks) != depth*m {
			t.Logf("seed %d: %d rows of marks at depth %d of %d lists", seed, len(got.Marks), d, m)
			return false
		}
		for at := 0; at < depth; at++ {
			for j := 0; j < m; j++ {
				var n int
				var sum int64
				for i := 0; i < m; i++ {
					if i != j && (at < d || i > j) {
						n++
						if objsAt[i][d] == objsAt[j][at] {
							sum++
						}
					}
				}
				row := got.Marks[at*m+j]
				var gotSum int64
				for _, bit := range row {
					gotSum += e.dec(t, bit)
				}
				if len(row) != n || gotSum != sum {
					t.Logf("seed %d: row (%d, %d) has %d marks summing to %d, want %d summing to %d", seed, at, j, len(row), gotSum, n, sum)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySecWorstBestDepths: SecWorstBestDepths over the last D
// depths of random list prefixes takes one round and returns, depth by
// depth, the Seen and Best a call over the prefixes cut at that depth
// returns, Seen summing every score of the item's object read up to that
// depth, and Marks holding each bit [o_i = o_j^e] where its doc comment
// places it.
func TestPropertySecWorstBestDepths(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(2)
		depth := 1 + rng.Intn(3)
		D := 1 + rng.Intn(depth)
		hist := make([]ListHistory, m)
		objs, scores := make([][]int, m), make([][]int64, m)
		for j := range hist {
			objs[j] = rng.Perm(4)
			for d := 0; d < depth; d++ {
				scores[j] = append(scores[j], int64(60-10*d-rng.Intn(5)))
				hist[j].EHLs = append(hist[j].EHLs, e.list(t, uint64(objs[j][d])))
				hist[j].Scores = append(hist[j].Scores, e.enc(t, scores[j][d]))
			}
		}
		// cut returns the histories as they stood at 0-based depth d, and
		// the items read there.
		cut := func(d int) ([]ListHistory, []DepthItem) {
			h, items := make([]ListHistory, m), make([]DepthItem, m)
			for j := range h {
				h[j] = ListHistory{EHLs: hist[j].EHLs[:d+1], Scores: hist[j].Scores[:d+1]}
				items[j] = DepthItem{EHL: hist[j].EHLs[d], Score: hist[j].Scores[d], ScoreBits: 10}
			}
			return h, items
		}
		depths := make([][]DepthItem, D)
		for x := range depths {
			_, depths[x] = cut(depth - D + x)
		}
		before := e.stats.Rounds()
		bounds, err := SecWorstBestDepths(ctx, e.client, depths, hist)
		if err != nil {
			t.Logf("SecWorstBestDepths: %v", err)
			return false
		}
		if rounds := e.stats.Rounds() - before; rounds != 1 {
			t.Logf("seed %d: %d depths took %d rounds, want 1", seed, D, rounds)
			return false
		}
		for x := 0; x < D; x++ {
			d := depth - D + x
			h, items := cut(d)
			own, err := SecWorstBestDepths(ctx, e.client, [][]DepthItem{items}, h)
			if err != nil {
				t.Logf("SecWorstBestDepths at depth %d: %v", d, err)
				return false
			}
			got := bounds[x]
			if len(got.Marks) != (d+1)*m {
				t.Logf("seed %d: depth %d has %d rows of marks, want %d", seed, d, len(got.Marks), (d+1)*m)
				return false
			}
			for i := 0; i < m; i++ {
				if e.dec(t, got.Seen[i]) != e.dec(t, own[0].Seen[i]) || e.dec(t, got.Best[i]) != e.dec(t, own[0].Best[i]) {
					t.Logf("seed %d: depth %d of %d, item %d differs from its own round", seed, x, D, i)
					return false
				}
				seen := scores[i][d]
				for j := 0; j < m; j++ {
					if j == i {
						continue
					}
					for at := 0; at <= d; at++ {
						var eq int64
						if objs[j][at] == objs[i][d] {
							eq, seen = 1, seen+scores[j][at]
						}
						// Item i's bit against list j's row at depth at.
						var bit *paillier.Ciphertext
						switch {
						case at < d && i < j:
							bit = got.Marks[at*m+j][i]
						case at < d:
							bit = got.Marks[at*m+j][i-1]
						case i > j:
							bit = got.Marks[d*m+j][i-j-1]
						default:
							bit = got.Marks[d*m+i][j-i-1]
						}
						if e.dec(t, bit) != eq {
							t.Logf("seed %d: depth %d, bit of item %d against list %d at depth %d is not %d", seed, d, i, j, at, eq)
							return false
						}
					}
				}
				if v := e.dec(t, got.Seen[i]); v != seen {
					t.Logf("seed %d: depth %d, item %d has Seen %d, want %d (objects %v, scores %v)", seed, d, i, v, seen, objs, scores)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEncSortIsPermutationSorted checks that EncSelectTop asked
// for all n of n items outputs a sorted permutation of its input multiset
// for random values.
func TestPropertyEncSortIsPermutationSorted(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		vals := make([]int64, n)
		items := make([]Item, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(100))
			items[i] = e.item(t, uint64(200+i), vals[i])
		}
		out, err := EncSelectTop(context.Background(), e.client, items, 0, false, n, 16)
		if err != nil {
			t.Logf("EncSelectTop: %v", err)
			return false
		}
		counts := map[int64]int{}
		for _, v := range vals {
			counts[v]++
		}
		prev := int64(-1 << 60)
		for _, it := range out {
			v := e.dec(t, it.Scores[0])
			if v < prev {
				t.Logf("seed %d: not sorted: %v", seed, vals)
				return false
			}
			prev = v
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				t.Logf("seed %d: multiset changed", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDedupInvariants checks that a merge with no merge columns
// (SecDupElim) keeps exactly one item per distinct object with unchanged
// scores.
func TestPropertyDedupInvariants(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		objs := make([]uint64, n)
		items := make([]Item, n)
		scoreOf := map[uint64]int64{}
		for i := range objs {
			objs[i] = uint64(rng.Intn(4))
			s, ok := scoreOf[objs[i]]
			if !ok {
				s = int64(rng.Intn(90) + 1)
				scoreOf[objs[i]] = s
			}
			items[i] = e.item(t, objs[i], s, s+1)
		}
		out, err := SecDedup(context.Background(), e.client, items, cloud.DedupMerge, AllPairs(n), nil)
		if err != nil {
			t.Logf("SecDedup: %v", err)
			return false
		}
		if len(out) != len(scoreOf) {
			t.Logf("seed %d: kept %d, want %d distinct", seed, len(out), len(scoreOf))
			return false
		}
		seen := map[uint64]bool{}
		cands := make([]uint64, 0, len(scoreOf))
		for o := range scoreOf {
			cands = append(cands, o)
		}
		for _, it := range out {
			obj, ok := e.revealObj(t, it.EHL, cands)
			if !ok || seen[obj] {
				t.Logf("seed %d: unknown or duplicate object after dedup", seed)
				return false
			}
			seen[obj] = true
			if e.dec(t, it.Scores[0]) != scoreOf[obj] {
				t.Logf("seed %d: score changed for obj %d", seed, obj)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompareAgainstPlaintext fuzzes EncCompare with random
// signed values.
func TestPropertyCompareAgainstPlaintext(t *testing.T) {
	e := env(t)
	f := func(a, b int16) bool {
		ca := e.enc(t, int64(a))
		cb := e.enc(t, int64(b))
		got, err := EncCompare(context.Background(), e.client, ca, cb, 18)
		if err != nil {
			t.Logf("EncCompare: %v", err)
			return false
		}
		return got == (a <= b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySecMultMatrix checks batched SecMult and SecSquare on
// random vectors, their operands declared at 10 bits.
func TestPropertySecMultMatrix(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		as := make([]*paillier.Ciphertext, n)
		bs := make([]*paillier.Ciphertext, n)
		want := make([]int64, n)
		for i := 0; i < n; i++ {
			x := int64(rng.Intn(1000)) - 500
			y := int64(rng.Intn(1000)) - 500
			as[i] = e.enc(t, x)
			bs[i] = e.enc(t, y)
			want[i] = x * y
		}
		got, err := SecMult(context.Background(), e.client, as, bs, 10)
		if err != nil {
			t.Logf("SecMult: %v", err)
			return false
		}
		squares, err := SecSquare(context.Background(), e.client, as, 10)
		if err != nil {
			t.Logf("SecSquare: %v", err)
			return false
		}
		for i := range want {
			if x := e.dec(t, as[i]); e.dec(t, got[i]) != want[i] || e.dec(t, squares[i]) != x*x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
