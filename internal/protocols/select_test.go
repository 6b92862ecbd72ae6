package protocols

import (
	"context"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// bitCase is one hidden bit of a gadget round: the group of test
// ciphertexts S2 reads it from, the bit it must read, and the bit's
// payloads.
type bitCase struct {
	tests []*paillier.Ciphertext
	bit   int64
	pay   []*paillier.Ciphertext
}

// bitCases builds width-w bits under method, both values of the bit, over
// fresh payloads of both signs, so a payload's plaintext d wraps mod N
// for half of them. An EqBits bit reads a group of tests: a set bit has
// one zero test in it, or every test zero, the OR of a row that equals
// all the rows before it.
func (e *testEnv) bitCases(t testing.TB, method string, group, width int) []bitCase {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(35 + 8*group + width)))
	var out []bitCase
	for i := 0; i < 4; i++ {
		bit := int64(i % 2)
		c := bitCase{bit: bit}
		for x := 0; x < group; x++ {
			// EqBits reads t = [some m = 0]; CompareHidden reads t = [m < 0].
			var m int64
			switch {
			case method == cloud.MethodEqBits && (bit == 0 || i == 1 && x != group/2):
				m = 1 + rng.Int63n(1000)
			case method == cloud.MethodCompareHidden && bit == 1:
				m = -1 - rng.Int63n(1000)
			case method == cloud.MethodCompareHidden:
				m = 1 + rng.Int63n(1000)
			}
			c.tests = append(c.tests, e.enc(t, m))
		}
		for s := 0; s < width; s++ {
			c.pay = append(c.pay, e.enc(t, rng.Int63n(2000)-1000))
		}
		out = append(out, c)
	}
	return out
}

// flatten lays the cases out as ApplyBits takes them.
func flatten(cases []bitCase) (tests, pay []*paillier.Ciphertext) {
	for _, c := range cases {
		tests, pay = append(tests, c.tests...), append(pay, c.pay...)
	}
	return tests, pay
}

// gadgetTap keeps every gadget request and reply and counts the rounds of
// every method.
type gadgetTap struct {
	inner    transport.Caller
	mu       sync.Mutex
	requests []*cloud.GadgetRequest
	replies  []*cloud.GadgetReply
	calls    map[string]int
}

func (c *gadgetTap) Call(ctx context.Context, method string, req, resp any) error {
	err := c.inner.Call(ctx, method, req, resp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls == nil {
		c.calls = map[string]int{}
	}
	c.calls[method]++
	if r, ok := req.(*cloud.GadgetRequest); ok && err == nil {
		c.requests = append(c.requests, r)
		c.replies = append(c.replies, resp.(*cloud.GadgetReply))
	}
	return err
}

func (e *testEnv) tappedClient(t testing.TB) (*cloud.Client, *gadgetTap) {
	t.Helper()
	tap := &gadgetTap{inner: transport.NewLocal(e.server, nil)}
	client, err := cloud.NewClient(tap, &e.keys.Paillier.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client, tap
}

// TestPropertySelect holds the gadget to its plaintext meaning under both
// of its methods, at widths 1-4 and, for EqBits, groups of 1-3 tests:
// every output decrypts to t*d for its bit t and payload d, differences
// of both signs included, and every returned bit to t; none repeats an
// input ciphertext, and a round ApplyBits cannot build is an error, not a
// panic, that sends nothing to S2.
func TestPropertySelect(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	client, tap := e.tappedClient(t)
	for _, method := range []string{cloud.MethodEqBits, cloud.MethodCompareHidden} {
		groups := 1
		if method == cloud.MethodEqBits {
			groups = 3
		}
		for group := 1; group <= groups; group++ {
			for width := 1; width <= 4; width++ {
				cases := e.bitCases(t, method, group, width)
				tests, pay := flatten(cases)
				out, bits, err := ApplyBits(ctx, client, method, group, width, tests, pay)
				if err != nil {
					t.Fatalf("%s group %d width %d: %v", method, group, width, err)
				}
				for k, c := range cases {
					if g := e.dec(t, bits[k]); g != c.bit {
						t.Errorf("%s group %d width %d bit %d came back as Enc(%d), want Enc(%d)", method, group, width, k, g, c.bit)
					}
					for s, d := range c.pay {
						got := out[k*width+s]
						if g, w := e.dec(t, got), c.bit*e.dec(t, d); g != w {
							t.Errorf("%s group %d width %d bit %d payload %d = %d, want %d", method, group, width, k, s, g, w)
						}
						for _, in := range append(tests, pay...) {
							if got.C.Cmp(in.C) == 0 {
								t.Errorf("%s group %d width %d bit %d payload %d returned an input ciphertext verbatim", method, group, width, k, s)
							}
						}
					}
				}
			}
		}
	}

	rounds := len(tap.requests)
	one, two := e.enc(t, 1), e.enc(t, 2)
	for name, tc := range map[string]struct {
		group, width int
		tests, in    []*paillier.Ciphertext
	}{
		"width zero":           {1, 0, []*paillier.Ciphertext{one}, nil},
		"group zero":           {0, 1, []*paillier.Ciphertext{one}, []*paillier.Ciphertext{two}},
		"a test short":         {2, 1, []*paillier.Ciphertext{one, one, one}, []*paillier.Ciphertext{two, two}},
		"a payload short":      {1, 2, []*paillier.Ciphertext{one}, []*paillier.Ciphertext{two}},
		"a payload too many":   {1, 1, []*paillier.Ciphertext{one}, []*paillier.Ciphertext{two, two}},
		"a payload per test":   {2, 1, []*paillier.Ciphertext{one, one}, []*paillier.Ciphertext{two, two}},
		"a nil payload":        {1, 1, []*paillier.Ciphertext{one}, []*paillier.Ciphertext{nil}},
		"an empty payload":     {1, 1, []*paillier.Ciphertext{one}, []*paillier.Ciphertext{{}}},
		"a nil test":           {1, 1, []*paillier.Ciphertext{nil}, []*paillier.Ciphertext{two}},
		"a nil test in groups": {2, 1, []*paillier.Ciphertext{one, nil}, []*paillier.Ciphertext{two}},
	} {
		if _, _, err := ApplyBits(ctx, client, cloud.MethodEqBits, tc.group, tc.width, tc.tests, tc.in); err == nil {
			t.Errorf("%s: ApplyBits succeeded", name)
		}
	}
	if len(tap.requests) != rounds {
		t.Errorf("refused rounds still sent %d requests to S2", len(tap.requests)-rounds)
	}
	if out, bits, err := ApplyBits(ctx, client, cloud.MethodEqBits, 2, 3, nil, nil); err != nil || out != nil || bits != nil || len(tap.requests) != rounds {
		t.Errorf("a round of no bits = %v, %v, %v, and went to S2", out, bits, err)
	}
}

// TestSelectTermIsBlindedOnce reads the gadget off the wire. Per bit S1
// sends one payload a slot, not two: Width payloads beside one test
// ciphertext. Each payload decrypts to its difference d plus a blind r
// that is distinct across the round and never zero, so it is never d
// itself. And S1's output is exactly S2's reply times one power of the
// bit S2 returned, Enc(t)^(N-r), with the r of that payload: one blind,
// applied once, taken off by the bit's one chain.
func TestSelectTermIsBlindedOnce(t *testing.T) {
	e := env(t)
	client, tap := e.tappedClient(t)
	pk := client.PK()
	const width = 3
	cases := e.bitCases(t, cloud.MethodCompareHidden, 1, width)
	tests, pay := flatten(cases)
	out, _, err := ApplyBits(context.Background(), client, cloud.MethodCompareHidden, 1, width, tests, pay)
	if err != nil {
		t.Fatal(err)
	}
	if len(tap.requests) != 1 {
		t.Fatalf("%d gadget rounds, want 1", len(tap.requests))
	}
	req, resp := tap.requests[0], tap.replies[0]
	if req.Width != width || req.Group != 1 || len(req.Cts) != len(cases) || len(req.Pay) != width*len(cases) {
		t.Fatalf("request: width %d, groups of %d, %d tests, %d payloads; want %d, 1, %d, %d", req.Width, req.Group, len(req.Cts), len(req.Pay), width, len(cases), width*len(cases))
	}
	seen := map[string]bool{}
	for k, c := range cases {
		// Comparison bits keep the caller's order on the wire.
		if req.Cts[k].Cmp(c.tests[0].C) != 0 {
			t.Fatalf("bit %d travels at another position", k)
		}
		for s, d := range c.pay {
			sent, err := e.keys.Paillier.Decrypt(&paillier.Ciphertext{C: req.Pay[k*width+s]})
			if err != nil {
				t.Fatal(err)
			}
			dm, _ := e.keys.Paillier.Decrypt(d)
			r := new(big.Int).Sub(sent, dm)
			r.Mod(r, pk.N)
			if r.Sign() == 0 || seen[r.String()] {
				t.Errorf("bit %d payload %d: blind %v is zero or another payload's", k, s, r)
			}
			seen[r.String()] = true
			want := new(big.Int).Exp(resp.Bits[k], new(big.Int).Sub(pk.N, r), pk.N2)
			want.Mul(want, resp.Cts[k*width+s]).Mod(want, pk.N2)
			if out[k*width+s].C.Cmp(want) != 0 {
				t.Errorf("bit %d payload %d: output is not the reply times Enc(t)^(N-r)", k, s)
			}
		}
	}
}

// slotValues decrypts every slot of an item, id digests first.
func (e *testEnv) slotValues(t testing.TB, it Item) []string {
	t.Helper()
	var out []string
	for _, ct := range it.slots() {
		m, err := e.keys.Paillier.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.String())
	}
	return out
}

// TestGateSwap runs one compare-exchange for both values of the hidden bit:
// position i must hold the item that sorts first and position j the other,
// slot for slot, id digests (arbitrary residues mod N) included, although
// only position i is selected and position j is derived from it.
func TestGateSwap(t *testing.T) {
	e := env(t)
	lo, hi := e.item(t, 41, 3, -5, 70), e.item(t, 42, 9, 6, -80)
	for _, tc := range []struct {
		name         string
		at0, at1     Item
		desc         bool
		want0, want1 Item
	}{
		{"ascending keeps", lo, hi, false, lo, hi},
		{"ascending swaps", hi, lo, false, lo, hi},
		{"descending keeps", hi, lo, true, hi, lo},
		{"descending swaps", lo, hi, true, hi, lo},
	} {
		work := []Item{tc.at0, tc.at1}
		if err := runGateLayer(context.Background(), e.client, work, []gate{{0, 1}}, 0, tc.desc, 18); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for pos, want := range []Item{tc.want0, tc.want1} {
			got, wantVals := e.slotValues(t, work[pos]), e.slotValues(t, want)
			if len(got) != len(wantVals) {
				t.Fatalf("%s: position %d has %d slots, want %d", tc.name, pos, len(got), len(wantVals))
			}
			for s := range got {
				if got[s] != wantVals[s] {
					t.Errorf("%s: position %d slot %d = %s, want %s", tc.name, pos, s, got[s], wantVals[s])
				}
			}
			if len(work[pos].EHL.Cts) != len(want.EHL.Cts) {
				t.Errorf("%s: position %d lost its id shape", tc.name, pos)
			}
		}
		// The caller's items are inputs, not scratch space.
		if tc.at0.EHL == work[0].EHL || &tc.at0.Scores[0] == &work[0].Scores[0] {
			t.Errorf("%s: the gate wrote into its input", tc.name)
		}
	}
}

// TestGateLayerWireShape pins what a layer puts on the wire: g gates over
// w-slot items are one CompareHidden round carrying g masked differences
// and one payload a slot, gw in all (the difference of the gate's two
// orderings), and S2 answers g bits and gw payloads. Nothing else is
// called: no Recover round, no second round of any kind.
func TestGateLayerWireShape(t *testing.T) {
	e := env(t)
	client, tap := e.tappedClient(t)
	work := make([]Item, 6)
	for i := range work {
		work[i] = e.item(t, uint64(200+i), int64(10*i), int64(i)) // w = 3 digests + 2 scores
	}
	layer := []gate{{0, 1}, {2, 5}, {3, 4}}
	if err := runGateLayer(context.Background(), client, work, layer, 0, true, 18); err != nil {
		t.Fatal(err)
	}
	const g, w = 3, 5
	if len(tap.calls) != 1 || tap.calls[cloud.MethodCompareHidden] != 1 {
		t.Fatalf("rounds by method %v, want one CompareHidden", tap.calls)
	}
	req, resp := tap.requests[0], tap.replies[0]
	if req.Width != w || len(req.Cts) != g || len(req.Pay) != g*w {
		t.Errorf("request: width %d, %d differences, %d payloads; want %d, %d, %d", req.Width, len(req.Cts), len(req.Pay), w, g, g*w)
	}
	if len(resp.Bits) != g || len(resp.Cts) != g*w {
		t.Errorf("reply: %d bits, %d payloads; want %d, %d", len(resp.Bits), len(resp.Cts), g, g*w)
	}
}
