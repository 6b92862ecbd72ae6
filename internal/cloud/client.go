package cloud

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// Client is the data cloud S1's stub for talking to the crypto cloud S2.
// It owns S1's one ephemeral Paillier key pair (the pk' of Algorithm 7),
// whose modulus is ephemeralBits wider than the main one: every blind
// record is an integer sum of additive blinds, and that much headroom
// keeps the sum from wrapping before S1 reduces it mod N.
//
// The client also carries S1's nonce-precompute pools; the protocols
// layer reads them through Enc and EphEnc so every S1-side blinding loop
// shares one configuration.
type Client struct {
	caller   transport.Caller
	relation string
	pk       *paillier.PublicKey
	eph      *paillier.PrivateKey
	ledger   *Ledger
	pkEnc    paillier.Encryptor
	ephEnc   paillier.Encryptor
	close    []func()
}

// NewClient builds S1's stub. The ledger records S1-side leakage
// observations and may be nil. Call Close when done to release the
// background nonce pools.
func NewClient(caller transport.Caller, pk *paillier.PublicKey, ledger *Ledger, opts ...Option) (*Client, error) {
	if caller == nil {
		return nil, errors.New("cloud: nil caller")
	}
	if pk == nil {
		return nil, errors.New("cloud: nil public key")
	}
	eph, err := paillier.GenerateKey(rand.Reader, pk.N.BitLen()+ephemeralBits)
	if err != nil {
		return nil, fmt.Errorf("cloud: generating ephemeral key: %w", err)
	}
	pkEnc, ephEnc := newEnc(pk), newEnc(&eph.PublicKey)
	return &Client{
		caller: caller, relation: buildConfig(opts).relation, pk: pk, eph: eph, ledger: ledger,
		pkEnc: pkEnc, ephEnc: ephEnc, close: []func(){pkEnc.Close, ephEnc.Close},
	}, nil
}

// Close stops the client's background nonce pools. The client stays
// usable afterwards (encryptions compute nonces inline).
func (c *Client) Close() {
	for _, f := range c.close {
		f()
	}
	c.close = nil
}

// Relation returns the relation ID this stub stamps on every request
// (set with WithRelation; empty for single-relation deployments).
func (c *Client) Relation() string { return c.relation }

// Handshake runs the Hello round: it names the relation this stub
// queries, and an unregistered relation surfaces as
// secerr.ErrUnknownRelation. (A peer at another wire version was already
// refused at the connection preface, typed secerr.ErrProtocolVersion.)
func (c *Client) Handshake(ctx context.Context) error {
	return Handshake(ctx, c.caller, c.relation)
}

// Handshake runs the Hello round over a bare caller — the shared
// implementation behind Client.Handshake and a re-dialed link's proof of
// its hosted relations, which runs before the link reaches any client.
// Relation "" names none: the round is empty.
func Handshake(ctx context.Context, caller transport.Caller, relation string) error {
	return caller.Call(ctx, MethodHello, &HelloRequest{Relation: relation}, new(HelloReply))
}

// PK returns the main Paillier public key.
func (c *Client) PK() *paillier.PublicKey { return c.pk }

// Ephemeral returns S1's ephemeral key pair.
func (c *Client) Ephemeral() *paillier.PrivateKey { return c.eph }

// Ledger returns S1's leakage ledger (may be nil).
func (c *Client) Ledger() *Ledger { return c.ledger }

// Enc returns the encryption surface for the main public key (pooled when
// pooling is enabled).
func (c *Client) Enc() paillier.Encryptor { return c.pkEnc }

// EphEnc returns the encryption surface for the ephemeral key.
func (c *Client) EphEnc() paillier.Encryptor { return c.ephEnc }

func ctsToBig(cts []*paillier.Ciphertext) ([]*big.Int, error) {
	out := make([]*big.Int, len(cts))
	for i, c := range cts {
		if c == nil || c.C == nil {
			return nil, fmt.Errorf("cloud: nil ciphertext at %d", i)
		}
		out[i] = c.C
	}
	return out, nil
}

func bigToCts(vals []*big.Int) []*paillier.Ciphertext {
	out := make([]*paillier.Ciphertext, len(vals))
	for i, v := range vals {
		out[i] = &paillier.Ciphertext{C: v}
	}
	return out
}

// CompareSigns sends sign-blinded differences and returns each sign.
func (c *Client) CompareSigns(ctx context.Context, cts []*paillier.Ciphertext) ([]bool, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	vals, err := ctsToBig(cts)
	if err != nil {
		return nil, err
	}
	var resp CompareReply
	if err := c.caller.Call(ctx, MethodCompare, &CompareRequest{Relation: c.relation, Cts: vals}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Neg) != len(cts) {
		return nil, fmt.Errorf("cloud: Compare reply length %d != %d", len(resp.Neg), len(cts))
	}
	return resp.Neg, nil
}

// Gadget runs one round of the hidden-bit gadget under method
// (MethodEqBits or MethodCompareHidden): per bit group test ciphertexts
// (tests[k*group:] are bit k's; group is 1 but for grouped EqBits, where
// the bit is the OR of the group's zero tests) and width blinded payloads
// (pay[k*width:] are bit k's). S2 answers Enc(t_k) and, per payload,
// Enc(t_k * payload), re-randomized.
func (c *Client) Gadget(ctx context.Context, method string, group, width int, tests, pay []*paillier.Ciphertext) (bits, out []*paillier.Ciphertext, err error) {
	if len(tests) == 0 {
		return nil, nil, nil
	}
	if group < 1 || width < 1 || len(tests)%group != 0 || len(pay) != width*(len(tests)/group) {
		return nil, nil, fmt.Errorf("cloud: %s: %d tests and %d payloads for groups of %d and width %d", method, len(tests), len(pay), group, width)
	}
	req := &GadgetRequest{Width: width, Group: group}
	if req.Pay, err = ctsToBig(pay); err != nil {
		return nil, nil, err
	}
	bits, out, _, err = c.gadget(ctx, method, req, tests, len(tests)/group, len(pay), 0)
	return bits, out, err
}

// MatrixSide is one side of an equality matrix, its rows or its columns:
// Items items of Width blinded payloads each (Pay[i*Width:] are item i's),
// of which the last Cross cross into the item i matches on the other side
// and the rest are scaled by i's own bit.
type MatrixSide struct {
	Items, Width, Cross int
	Pay                 []*paillier.Ciphertext
}

// Validate checks the side's shape: at least one item, Cross within
// Width, Width payloads an item.
func (s MatrixSide) Validate() error {
	if s.Items < 1 || s.Cross < 0 || s.Cross > s.Width || len(s.Pay) != s.Items*s.Width {
		return fmt.Errorf("cloud: %d payloads for %d matrix items of width %d, %d crossing", len(s.Pay), s.Items, s.Width, s.Cross)
	}
	return nil
}

// Matrix runs one EqBits round over the rows.Items × cols.Items zero
// tests cells, row-major: S2 answers Enc(t_rc) per cell and, per row, its
// scaled payloads times t_r = Σ_c t_rc and then, per crossing column
// payload, the sum of the column payloads its cells select; per column
// the same the other way round.
func (c *Client) Matrix(ctx context.Context, cells []*paillier.Ciphertext, rows, cols MatrixSide) (bits, rowOut, colOut []*paillier.Ciphertext, err error) {
	if err := rows.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if err := cols.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if len(cells) != rows.Items*cols.Items {
		return nil, nil, nil, fmt.Errorf("cloud: EqBits matrix: %d cells for %d×%d", len(cells), rows.Items, cols.Items)
	}
	req := &GadgetRequest{Width: rows.Width, Group: 1, Cross: rows.Cross, Cols: cols.Items, ColWidth: cols.Width, ColCross: cols.Cross}
	if req.Pay, err = ctsToBig(rows.Pay); err != nil {
		return nil, nil, nil, err
	}
	if req.ColPay, err = ctsToBig(cols.Pay); err != nil {
		return nil, nil, nil, err
	}
	return c.gadget(ctx, MethodEqBits, req, cells, len(cells), rows.Items*(rows.Width-rows.Cross+cols.Cross), cols.Items*(cols.Width-cols.Cross+rows.Cross))
}

// gadget sends req with tests as its Cts and checks that the reply holds
// the counts of bits and payloads asked for.
func (c *Client) gadget(ctx context.Context, method string, req *GadgetRequest, tests []*paillier.Ciphertext, nBits, nOut, nColOut int) (bits, out, colOut []*paillier.Ciphertext, err error) {
	req.Relation = c.relation
	if req.Cts, err = ctsToBig(tests); err != nil {
		return nil, nil, nil, err
	}
	var resp GadgetReply
	if err := c.caller.Call(ctx, method, req, &resp); err != nil {
		return nil, nil, nil, err
	}
	if len(resp.Bits) != nBits || len(resp.Cts) != nOut || len(resp.ColCts) != nColOut {
		return nil, nil, nil, fmt.Errorf("cloud: %s reply has %d bits, %d payloads and %d column payloads, want %d, %d and %d", method, len(resp.Bits), len(resp.Cts), len(resp.ColCts), nBits, nOut, nColOut)
	}
	return bigToCts(resp.Bits), bigToCts(resp.Cts), bigToCts(resp.ColCts), nil
}

// MultBlinded sends blinded factor pairs and returns the raw products
// Enc((a-r_a)(b-r_b)).
func (c *Client) MultBlinded(ctx context.Context, a, b []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("cloud: Mult length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, nil
	}
	av, err := ctsToBig(a)
	if err != nil {
		return nil, err
	}
	bv, err := ctsToBig(b)
	if err != nil {
		return nil, err
	}
	var resp MultReply
	if err := c.caller.Call(ctx, MethodMult, &MultRequest{Relation: c.relation, A: av, B: bv}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Products) != len(a) {
		return nil, fmt.Errorf("cloud: Mult reply length %d != %d", len(resp.Products), len(a))
	}
	return bigToCts(resp.Products), nil
}

// SquareBlinded sends blinded operands alone, a Mult request with no B,
// and returns the raw squares Enc((a-r)^2).
func (c *Client) SquareBlinded(ctx context.Context, a []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(a) == 0 {
		return nil, nil
	}
	av, err := ctsToBig(a)
	if err != nil {
		return nil, err
	}
	var resp MultReply
	if err := c.caller.Call(ctx, MethodMult, &MultRequest{Relation: c.relation, A: av}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Products) != len(a) {
		return nil, fmt.Errorf("cloud: Mult reply length %d != %d", len(resp.Products), len(a))
	}
	return bigToCts(resp.Products), nil
}

// DedupRound executes one oblivious deduplication exchange. The request
// must already be blinded and permuted; see protocols.SecDedup for the
// full S1-side protocol.
func (c *Client) DedupRound(ctx context.Context, req *DedupRequest) (*DedupReply, error) {
	if req == nil {
		return nil, errors.New("cloud: nil dedup request")
	}
	req.Relation = c.relation
	req.EphemeralN = c.eph.N
	var resp DedupReply
	if err := c.caller.Call(ctx, MethodDedup, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// FilterRound executes one oblivious filter exchange for the join
// pipeline; see protocols.SecFilter.
func (c *Client) FilterRound(ctx context.Context, req *FilterRequest) (*FilterReply, error) {
	if req == nil {
		return nil, errors.New("cloud: nil filter request")
	}
	req.Relation = c.relation
	req.EphemeralN = c.eph.N
	var resp FilterReply
	if err := c.caller.Call(ctx, MethodFilter, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
