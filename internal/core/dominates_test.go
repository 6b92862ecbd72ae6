package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/paillier"
	"repro/internal/protocols"
)

// TestDominatesMatchesPlaintext holds Dominates' verdict to the plaintext
// NRA predicate — W_k, the k-th largest worst score, is at least the bound
// of every item past the top k and every extra bound — and pins its trace:
// one "dominance bits" line on S1's ledger counting the tail and the extra
// bounds, and one comparison round at S2 unless there is nothing to compare.
func TestDominatesMatchesPlaintext(t *testing.T) {
	r := getRig(t)
	ctx := context.Background()
	magBits := MagBits(20, &Token{Lists: []int{0, 1, 2}})
	enc := func(v int64) *paillier.Ciphertext {
		ct, err := r.scheme.enc.Encrypt(big.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	for _, c := range []struct {
		name  string
		w, b  []int64 // worst score and best bound per item, distinct w
		k     int
		extra []int64
		want  bool
	}{
		{"tail bound equal to W_k dominates", []int64{9, 5, 3}, []int64{12, 8, 5}, 2, nil, true},
		{"tail bound W_k+1 does not", []int64{9, 5, 3}, []int64{12, 8, 6}, 2, nil, false},
		{"tail plus an unseen bound", []int64{3, 9, 5, 1}, []int64{4, 9, 7, 2}, 2, []int64{5}, true},
		{"tail plus an unseen bound above W_k", []int64{3, 9, 5, 1}, []int64{4, 9, 7, 2}, 2, []int64{6}, false},
		{"residuals only", []int64{5, 9}, []int64{8, 12}, 2, []int64{4, 5, 0}, true},
		{"residuals only, one above W_k", []int64{5, 9}, []int64{8, 12}, 2, []int64{4, 7}, false},
		{"no bounds at all certifies", []int64{5, 9}, []int64{8, 12}, 2, nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			items := make([]protocols.Item, len(c.w))
			for i := range items {
				l, err := r.scheme.hasher.Build(uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				items[i] = protocols.Item{EHL: l, Scores: []*paillier.Ciphertext{enc(c.w[i]), enc(c.b[i])}, ScoreBits: SlotBits(magBits)}
			}
			var extra []*paillier.Ciphertext
			for _, v := range c.extra {
				extra = append(extra, enc(v))
			}

			// The plaintext predicate.
			order := make([]int, len(c.w))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(x, y int) bool { return c.w[order[x]] > c.w[order[y]] })
			wk := c.w[order[c.k-1]]
			plain := true
			for _, i := range order[c.k:] {
				plain = plain && c.b[i] <= wk
			}
			for _, v := range c.extra {
				plain = plain && v <= wk
			}
			if plain != c.want {
				t.Fatalf("table row disagrees with the plaintext predicate: %v", plain)
			}

			r.s1led.Reset()
			compares := len(r.s2led.ByMethod(cloud.MethodCompare))
			ranked, got, err := Dominates(ctx, r.client, "test check", items, c.k, magBits, StoredBounds, extra...)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("Dominates = %v, plaintext predicate %v", got, c.want)
			}
			rev, err := r.scheme.NewRevealer(len(items))
			if err != nil {
				t.Fatal(err)
			}
			top, err := rev.RevealTopK(ranked[:c.k])
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range top {
				if res.Obj != order[i] || res.Worst != c.w[order[i]] {
					t.Errorf("rank %d: got object %d worst %d, want object %d worst %d", i, res.Obj, res.Worst, order[i], c.w[order[i]])
				}
			}
			bits := len(c.w) - c.k + len(c.extra)
			want := fmt.Sprintf("[S1] Query: test check: %d dominance bits", bits)
			if lines := r.s1led.Strings(); len(lines) != 1 || lines[0] != want {
				t.Errorf("S1 ledger %q, want the one line %q", lines, want)
			}
			rounds := 1
			if bits == 0 {
				rounds = 0
			}
			if n := len(r.s2led.ByMethod(cloud.MethodCompare)) - compares; n != rounds {
				t.Errorf("%d comparison rounds at S2, want %d", n, rounds)
			}
		})
	}
}
