package protocols

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/prf"
)

// plainItem is an item as the data owner reads it: every slot decrypted,
// EHL digests first, then the score columns, all mod N.
type plainItem []*big.Int

func (p plainItem) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

func (e *testEnv) open(t testing.TB, it Item) plainItem {
	t.Helper()
	out := make(plainItem, 0, len(it.EHL.Cts)+len(it.Scores))
	for _, ct := range it.slots() {
		m, err := e.keys.Paillier.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// sentinelItem is a row SecDedup's Replace mode leaves behind: a uniform
// digest in every EHL slot and -1 in every score column.
func (e *testEnv) sentinelItem(t testing.TB, rng *rand.Rand, s, cols int) Item {
	t.Helper()
	pk := &e.keys.Paillier.PublicKey
	it := Item{EHL: &ehl.List{}}
	for i := 0; i < s; i++ {
		ct, err := pk.Encrypt(new(big.Int).Rand(rng, pk.N))
		if err != nil {
			t.Fatal(err)
		}
		it.EHL.Cts = append(it.EHL.Cts, ct)
	}
	for c := 0; c < cols; c++ {
		it.Scores = append(it.Scores, e.enc(t, -1))
	}
	return it
}

// foldUpdate is SecUpdate's fold on plaintexts, pair by pair, over the
// match list match[g] = the tracked item g equals, or -1: per matched
// pair T's copy adds g's additive columns and takes B_g; in Eliminate mode
// g adds T's additive columns too. It returns T's copies and g's, the
// matched g's (Replace mode's sentinels) left as they were.
func foldUpdate(n *big.Int, T, gamma []plainItem, match []int, width int, replace bool) (newT, newG []plainItem) {
	clone := func(in []plainItem) []plainItem {
		out := make([]plainItem, len(in))
		for i, p := range in {
			out[i] = make(plainItem, len(p))
			for s, v := range p {
				out[i][s] = new(big.Int).Set(v)
			}
		}
		return out
	}
	newT, newG = clone(T), clone(gamma)
	for g, t := range match {
		if t < 0 {
			continue
		}
		for s := width; s < len(T[t]); s++ {
			if s-width == ColBest {
				newT[t][s].Set(gamma[g][s])
				continue
			}
			newT[t][s].Add(T[t][s], gamma[g][s]).Mod(newT[t][s], n)
			if !replace {
				newG[g][s].Add(gamma[g][s], T[t][s]).Mod(newG[g][s], n)
			}
		}
	}
	return newT, newG
}

// TestSecUpdateOracle holds SecUpdate's one matrix round to the plaintext
// fold, pair by pair, over random deduplicated shapes in both modes: 1-4 new items
// against 1-8 tracked ones, EHLs of 1 and 3 digests, none to a full
// matching of matches, Replace-mode sentinel rows on both sides, an extra
// additive column beside W and B, and W alone. Every output slot is decrypted
// and set against the plaintext fold: in Replace mode row for row, T's
// copies merged and the matched new items sentinels (-1 in every score,
// a digest that is no longer the object's); in Eliminate mode as a set,
// one merged copy of each matched object.
func TestSecUpdateOracle(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	n := e.keys.Paillier.N
	minusOne := new(big.Int).Sub(n, big.NewInt(1))
	hashers := map[int]*ehl.Hasher{3: e.hasher}
	master := prf.Key(make([]byte, prf.KeySize))
	for i := range master {
		master[i] = byte(7 * i)
	}
	h1, err := ehl.NewHasher(master, ehl.Params{Kind: ehl.KindPlus, S: 1}, &e.keys.Paillier.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	hashers[1] = h1
	rng := rand.New(rand.NewSource(39))
	type shape struct{ R, C, matches, s, cols int }
	// The edges first: a lone pair matched and not, a full matching both
	// ways round, the widest shape with no match, W alone with no B; then
	// random shapes.
	shapes := []shape{{1, 1, 1, 3, 2}, {1, 1, 0, 1, 2}, {3, 3, 3, 3, 3}, {4, 2, 2, 1, 2}, {4, 8, 0, 3, 3}, {2, 8, 2, 1, 3}, {2, 3, 1, 3, 1}}
	for len(shapes) < 17 {
		R, C := 1+rng.Intn(4), 1+rng.Intn(8)
		shapes = append(shapes, shape{R, C, rng.Intn(min(R, C) + 1), []int{1, 3}[rng.Intn(2)], 2 + rng.Intn(2)})
	}
	for i, sh := range shapes {
		for _, mode := range []cloud.DedupMode{cloud.DedupReplace, cloud.DedupEliminate} {
			replace := mode == cloud.DedupReplace
			name := fmt.Sprintf("%d/%d×%d/%d-matches/S=%d/cols=%d/%v", i, sh.R, sh.C, sh.matches, sh.s, sh.cols, mode)
			// match[g] is the tracked item new item g equals, or -1; the
			// other items are distinct objects, or, in Replace mode, some of
			// them sentinels.
			match := make([]int, sh.R)
			for g := range match {
				match[g] = -1
			}
			perm := rng.Perm(sh.C)
			for g, x := range rng.Perm(sh.R)[:sh.matches] {
				match[x] = perm[g]
			}
			item := func(obj uint64) Item {
				l, err := hashers[sh.s].Build(obj)
				if err != nil {
					t.Fatal(err)
				}
				it := Item{EHL: l}
				for c := 0; c < sh.cols; c++ {
					it.Scores = append(it.Scores, e.enc(t, rng.Int63n(2000)-1000))
				}
				return it
			}
			sentinel := func() bool { return replace && rng.Intn(3) == 0 }
			matched := map[int]bool{}
			for _, x := range match {
				matched[x] = true
			}
			T := make([]Item, sh.C)
			for x := range T {
				if !matched[x] && sentinel() {
					T[x] = e.sentinelItem(t, rng, sh.s, sh.cols)
				} else {
					T[x] = item(uint64(1000*i + x))
				}
			}
			gamma := make([]Item, sh.R)
			for g := range gamma {
				switch {
				case match[g] >= 0:
					gamma[g] = item(uint64(1000*i + match[g]))
				case sentinel():
					gamma[g] = e.sentinelItem(t, rng, sh.s, sh.cols)
				default:
					gamma[g] = item(uint64(1000*i + 100 + g))
				}
			}
			plainT, plainG := make([]plainItem, sh.C), make([]plainItem, sh.R)
			for x, it := range T {
				plainT[x] = e.open(t, it)
			}
			for g, it := range gamma {
				plainG[g] = e.open(t, it)
			}
			wantT, wantG := foldUpdate(n, plainT, plainG, match, sh.s, replace)

			out, err := SecUpdate(ctx, e.client, T, gamma, mode)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := make([]plainItem, len(out))
			for x, it := range out {
				got[x] = e.open(t, it)
			}
			if replace {
				if len(got) != sh.C+sh.R {
					t.Fatalf("%s: %d rows, want %d", name, len(got), sh.C+sh.R)
				}
				for x, want := range wantT {
					if got[x].String() != want.String() {
						t.Errorf("%s: T[%d] = %v, want %v", name, x, got[x], want)
					}
				}
				for g, want := range wantG {
					row := got[sh.C+g]
					if match[g] < 0 {
						if row.String() != want.String() {
							t.Errorf("%s: unmatched gamma[%d] = %v, want %v", name, g, row, want)
						}
						continue
					}
					for s, v := range row {
						if s < sh.s && v.Cmp(want[s]) == 0 || s >= sh.s && v.Cmp(minusOne) != 0 {
							t.Errorf("%s: matched gamma[%d] slot %d = %v: not a sentinel", name, g, s, v)
						}
					}
				}
				continue
			}
			var wantSet, gotSet []string
			for _, p := range wantT {
				wantSet = append(wantSet, p.String())
			}
			for g, p := range wantG {
				if match[g] < 0 {
					wantSet = append(wantSet, p.String())
				}
			}
			for _, p := range got {
				gotSet = append(gotSet, p.String())
			}
			sort.Strings(wantSet)
			sort.Strings(gotSet)
			if strings.Join(gotSet, ";") != strings.Join(wantSet, ";") {
				t.Errorf("%s: rows\n%v\nwant\n%v", name, gotSet, wantSet)
			}
		}
	}
}

// TestUpdateWireShape pins what one SecUpdate round puts on the wire, R =
// 3 new items against C = 5 tracked ones with W and B (the benchmark
// seam's shape), at EHLs of S = 1 and 3 digests. It is one EqBits round
// of R·C cells. In Replace mode a row carries its S + 2 sentinel payloads
// and crosses W_g and B_g, a column B_t: up RC + R(S + 4) + C, down RC
// + R(S + 2) + 3C. In Eliminate mode a row crosses W_g and B_g, a column
// scales B_t and crosses W_t: up RC + 2R + 2C, down RC + R + 3C, then
// the bipartite Dedup. A layout with one bit and its payloads per (new,
// tracked) pair carries RC(1 + width) each way: 120 at Replace, S = 3.
func TestUpdateWireShape(t *testing.T) {
	e := env(t)
	master := prf.Key(make([]byte, prf.KeySize))
	for i := range master {
		master[i] = byte(5 * i)
	}
	for _, s := range []int{1, 3} {
		h, err := ehl.NewHasher(master, ehl.Params{Kind: ehl.KindPlus, S: s}, &e.keys.Paillier.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		item := func(obj uint64, w, b int64) Item {
			l, err := h.Build(obj)
			if err != nil {
				t.Fatal(err)
			}
			return Item{EHL: l, Scores: []*paillier.Ciphertext{e.enc(t, w), e.enc(t, b)}}
		}
		T := []Item{item(10, 700, 900), item(11, 650, 880), item(12, 600, 860), item(1, 550, 840), item(13, 500, 820)}
		gamma := []Item{item(1, 90, 800), item(14, 80, 790), item(15, 70, 780)}
		const R, C = 3, 5
		for _, tc := range []struct {
			mode     cloud.DedupMode
			up, down int
			rounds   map[string]int
		}{
			{cloud.DedupReplace, R*C + R*(s+4) + C, R*C + R*(s+2) + 3*C, map[string]int{cloud.MethodEqBits: 1}},
			{cloud.DedupEliminate, R*C + 2*R + 2*C, R*C + R + 3*C, map[string]int{cloud.MethodEqBits: 1, cloud.MethodDedup: 1}},
		} {
			client, tap := e.tappedClient(t)
			if _, err := SecUpdate(context.Background(), client, T, gamma, tc.mode); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(tap.calls) != fmt.Sprint(tc.rounds) {
				t.Fatalf("S=%d %v: rounds by method %v, want %v", s, tc.mode, tap.calls, tc.rounds)
			}
			req, resp := tap.requests[0], tap.replies[0]
			if len(req.Cts) != R*C || req.Cols != C || req.Group != 1 {
				t.Errorf("S=%d %v: %d cells in %d columns, groups of %d; want %d in %d, 1", s, tc.mode, len(req.Cts), req.Cols, req.Group, R*C, C)
			}
			up, down := len(req.Cts)+len(req.Pay)+len(req.ColPay), len(resp.Bits)+len(resp.Cts)+len(resp.ColCts)
			if up != tc.up || down != tc.down {
				t.Errorf("S=%d %v: %d ciphertexts up and %d down, want %d and %d", s, tc.mode, up, down, tc.up, tc.down)
			}
		}
	}
}

// TestSecUpdateShufflesMatrix reads SecUpdate's matrix as S2 does, with
// S2's keys: 3 new items against 5 tracked ones, one pair matching. Every
// call must show at most one zero cell per row and per column, and over
// 40 calls on the same inputs the match must land in more than one row
// and more than one column: S1 permutes rows and columns afresh each
// call. Without the column permutation the match sits in one column
// every time; the chance that a shuffled one does is 5^-39.
func TestSecUpdateShufflesMatrix(t *testing.T) {
	e := env(t)
	client, tap := e.tappedClient(t)
	T := []Item{e.item(t, 10, 7, 9), e.item(t, 11, 6, 8), e.item(t, 1, 5, 8), e.item(t, 12, 5, 7), e.item(t, 13, 4, 7)}
	gamma := []Item{e.item(t, 14, 2, 6), e.item(t, 1, 3, 6), e.item(t, 15, 1, 5)}
	rows, cols := map[int]bool{}, map[int]bool{}
	for call := 0; call < 40; call++ {
		before := len(tap.requests)
		if _, err := SecUpdate(context.Background(), client, T, gamma, cloud.DedupReplace); err != nil {
			t.Fatal(err)
		}
		if len(tap.requests) != before+1 {
			t.Fatalf("call %d sent %d gadget rounds, want 1", call, len(tap.requests)-before)
		}
		req := tap.requests[before]
		if req.Cols != len(T) || len(req.Cts) != len(T)*len(gamma) {
			t.Fatalf("call %d: %d cells in %d columns, want a %d×%d matrix", call, len(req.Cts), req.Cols, len(gamma), len(T))
		}
		zeros := 0
		for x, c := range req.Cts {
			if m, err := e.keys.Paillier.Decrypt(&paillier.Ciphertext{C: c}); err != nil {
				t.Fatal(err)
			} else if m.Sign() == 0 {
				rows[x/req.Cols], cols[x%req.Cols] = true, true
				zeros++
			}
		}
		if zeros != 1 {
			t.Fatalf("call %d: S2 read %d zero cells, want the one matched pair's", call, zeros)
		}
	}
	if len(rows) < 2 || len(cols) < 2 {
		t.Fatalf("over 40 calls the match sat in rows %v and columns %v: S1 does not permute both sides", rows, cols)
	}
}
