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
// already appeared in other lists' histories), SecWorstBestAll must
// decrypt to the plaintext formulas of Algorithms 4 and 6,
//
//	W_i = x_i + sum_{j != i, o_j = o_i} x_j
//	B_i = x_i + sum_{j != i} (o_i's score in L_j if seen there, else bottom_j)
//
// in one round, SecWorstAll / SecBestAll must return the same values, and
// the equality bits it returns must decrypt to [o_i = o_j].
func TestPropertySecWorstBest(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		depth := 1 + rng.Intn(3)
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
			for d := 0; d < depth; d++ {
				objsAt[j][d] = uint64(perm[d])
				scoresAt[j][d] = int64(60 - 10*d - rng.Intn(5)) // descending-ish
				hist[j].EHLs = append(hist[j].EHLs, e.list(t, objsAt[j][d]))
				hist[j].Scores = append(hist[j].Scores, e.enc(t, scoresAt[j][d]))
			}
			items[j] = DepthItem{EHL: hist[j].EHLs[depth-1], Score: hist[j].Scores[depth-1]}
		}
		before := e.stats.Rounds()
		worst, best, same, err := SecWorstBestAll(ctx, e.client, items, hist)
		if err != nil {
			t.Logf("SecWorstBestAll: %v", err)
			return false
		}
		if rounds := e.stats.Rounds() - before; rounds != 1 {
			t.Logf("seed %d: SecWorstBestAll took %d rounds, want 1", seed, rounds)
			return false
		}
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
			obj := objsAt[i][depth-1]
			wantW, wantB := scoresAt[i][depth-1], scoresAt[i][depth-1]
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				var eq int64
				if objsAt[j][depth-1] == obj {
					wantW, eq = wantW+scoresAt[j][depth-1], 1
				}
				if got := e.dec(t, same[i][j]); got != eq {
					t.Logf("seed %d: bit (%d, %d) = %d, want %d", seed, i, j, got, eq)
					return false
				}
				contrib := scoresAt[j][depth-1] // bottom
				for d := 0; d < depth; d++ {
					if objsAt[j][d] == obj {
						contrib = scoresAt[j][d]
					}
				}
				wantB += contrib
			}
			gotW, gotB := e.dec(t, worst[i]), e.dec(t, best[i])
			if gotW != wantW || gotB != wantB {
				t.Logf("seed %d: item %d (W, B) = (%d, %d), want (%d, %d) (objs=%v scores=%v)",
					seed, i, gotW, gotB, wantW, wantB, objsAt, scoresAt)
				return false
			}
			if pw, pb := e.dec(t, worstOnly[i]), e.dec(t, bestOnly[i]); pw != gotW || pb != gotB {
				t.Logf("seed %d: item %d projections (W, B) = (%d, %d), fused (%d, %d)", seed, i, pw, pb, gotW, gotB)
				return false
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
// depth, what SecWorstBestAll returns over the prefixes cut at that depth.
func TestPropertySecWorstBestDepths(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(2)
		depth := 1 + rng.Intn(3)
		D := 1 + rng.Intn(depth)
		hist := make([]ListHistory, m)
		for j := range hist {
			perm := rng.Perm(4)
			for d := 0; d < depth; d++ {
				hist[j].EHLs = append(hist[j].EHLs, e.list(t, uint64(perm[d])))
				hist[j].Scores = append(hist[j].Scores, e.enc(t, int64(60-10*d-rng.Intn(5))))
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
		worst, best, same, err := SecWorstBestDepths(ctx, e.client, depths, hist)
		if err != nil {
			t.Logf("SecWorstBestDepths: %v", err)
			return false
		}
		if rounds := e.stats.Rounds() - before; rounds != 1 {
			t.Logf("seed %d: %d depths took %d rounds, want 1", seed, D, rounds)
			return false
		}
		for x := 0; x < D; x++ {
			h, items := cut(depth - D + x)
			w, b, s, err := SecWorstBestAll(ctx, e.client, items, h)
			if err != nil {
				t.Logf("SecWorstBestAll: %v", err)
				return false
			}
			for i := 0; i < m; i++ {
				if e.dec(t, worst[x][i]) != e.dec(t, w[i]) || e.dec(t, best[x][i]) != e.dec(t, b[i]) {
					t.Logf("seed %d: depth %d of %d, item %d differs from its own round", seed, x, D, i)
					return false
				}
				for j := 0; j < m; j++ {
					if j != i && e.dec(t, same[x][i][j]) != e.dec(t, s[i][j]) {
						t.Logf("seed %d: depth %d of %d, bit (%d, %d) differs from its own round", seed, x, D, i, j)
						return false
					}
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

// TestPropertyDedupInvariants checks that eliminate-mode dedup keeps
// exactly one item per distinct object with unchanged scores.
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
		out, err := SecDedup(context.Background(), e.client, items, cloud.DedupEliminate, AllPairs(n), nil)
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
