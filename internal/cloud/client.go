package cloud

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/dj"
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
// layer reads them through Enc, EphEnc and DJEnc so every S1-side
// blinding loop shares one configuration.
type Client struct {
	caller   transport.Caller
	relation string
	pk       *paillier.PublicKey
	djPK     *dj.PublicKey
	eph      *paillier.PrivateKey
	ledger   *Ledger
	pkEnc    paillier.Encryptor
	ephEnc   paillier.Encryptor
	djEnc    dj.Encryptor
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
	djPK, err := dj.NewPublicKey(pk, 2)
	if err != nil {
		return nil, err
	}
	eph, err := paillier.GenerateKey(rand.Reader, pk.N.BitLen()+ephemeralBits)
	if err != nil {
		return nil, fmt.Errorf("cloud: generating ephemeral key: %w", err)
	}
	cfg := buildConfig(opts)
	c := &Client{caller: caller, relation: cfg.relation, pk: pk, djPK: djPK, eph: eph, ledger: ledger}
	// S1 holds only the ephemeral private key: the main and DJ surfaces
	// get the fast-nonce table when opted in (spec path otherwise), while
	// the ephemeral surface additionally defaults to CRT.
	pkEnc, err := cfg.newPaillierEnc(pk, nil)
	if err != nil {
		return nil, err
	}
	c.pkEnc, c.close = pkEnc, append(c.close, pkEnc.Close)
	ephEnc, err := cfg.newPaillierEnc(&eph.PublicKey, eph)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.ephEnc, c.close = ephEnc, append(c.close, ephEnc.Close)
	djEnc, err := cfg.newDJEnc(djPK, nil)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.djEnc, c.close = djEnc, append(c.close, djEnc.Close)
	return c, nil
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

// Handshake runs the Hello round: it announces this side's wire protocol
// version (and, when configured, the relation it intends to query) and
// verifies the peer answers compatibly. Incompatible peers surface as
// secerr.ErrProtocolVersion; an unregistered relation as
// secerr.ErrUnknownRelation.
func (c *Client) Handshake(ctx context.Context) error {
	return Handshake(ctx, c.caller, c.relation)
}

// Handshake runs the Hello round over a bare caller — the shared
// implementation behind Client.Handshake and connection-time handshakes
// that happen before any client (with its ephemeral key) exists.
func Handshake(ctx context.Context, caller transport.Caller, relation string) error {
	var resp HelloReply
	req := &HelloRequest{Version: transport.ProtocolVersion, Relation: relation}
	if err := caller.Call(ctx, MethodHello, req, &resp); err != nil {
		return err
	}
	return acceptVersion(resp.Version)
}

// PK returns the main Paillier public key.
func (c *Client) PK() *paillier.PublicKey { return c.pk }

// DJPK returns the degree-2 Damgård-Jurik public key.
func (c *Client) DJPK() *dj.PublicKey { return c.djPK }

// Ephemeral returns S1's ephemeral key pair.
func (c *Client) Ephemeral() *paillier.PrivateKey { return c.eph }

// Ledger returns S1's leakage ledger (may be nil).
func (c *Client) Ledger() *Ledger { return c.ledger }

// Enc returns the encryption surface for the main public key (pooled when
// pooling is enabled).
func (c *Client) Enc() paillier.Encryptor { return c.pkEnc }

// EphEnc returns the encryption surface for the ephemeral key.
func (c *Client) EphEnc() paillier.Encryptor { return c.ephEnc }

// DJEnc returns the encryption surface for the Damgård-Jurik layer.
func (c *Client) DJEnc() dj.Encryptor { return c.djEnc }

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

func djToBig(cts []*dj.Ciphertext) ([]*big.Int, error) {
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

func bigToDJ(vals []*big.Int) []*dj.Ciphertext {
	out := make([]*dj.Ciphertext, len(vals))
	for i, v := range vals {
		out[i] = &dj.Ciphertext{C: v}
	}
	return out
}

// EqBits sends randomized EHL differences and returns the hidden equality
// bits E2(t_i).
func (c *Client) EqBits(ctx context.Context, cts []*paillier.Ciphertext) ([]*dj.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	vals, err := ctsToBig(cts)
	if err != nil {
		return nil, err
	}
	var resp EqBitsReply
	if err := c.caller.Call(ctx, MethodEqBits, &EqBitsRequest{Relation: c.relation, Cts: vals}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Bits) != len(cts) {
		return nil, fmt.Errorf("cloud: EqBits reply length %d != %d", len(resp.Bits), len(cts))
	}
	return bigToDJ(resp.Bits), nil
}

// Recover strips the outer layer from blinded double encryptions.
func (c *Client) Recover(ctx context.Context, cts []*dj.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	vals, err := djToBig(cts)
	if err != nil {
		return nil, err
	}
	var resp RecoverReply
	if err := c.caller.Call(ctx, MethodRecover, &RecoverRequest{Relation: c.relation, Cts: vals}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Cts) != len(cts) {
		return nil, fmt.Errorf("cloud: Recover reply length %d != %d", len(resp.Cts), len(cts))
	}
	return bigToCts(resp.Cts), nil
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

// CompareSignsHidden is CompareSigns with encrypted result bits.
func (c *Client) CompareSignsHidden(ctx context.Context, cts []*paillier.Ciphertext) ([]*dj.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	vals, err := ctsToBig(cts)
	if err != nil {
		return nil, err
	}
	var resp CompareHiddenReply
	if err := c.caller.Call(ctx, MethodCompareHidden, &CompareHiddenRequest{Relation: c.relation, Cts: vals}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Bits) != len(cts) {
		return nil, fmt.Errorf("cloud: CompareHidden reply length %d != %d", len(resp.Bits), len(cts))
	}
	return bigToDJ(resp.Bits), nil
}

// MultBlinded sends blinded factor pairs and returns the raw products
// Enc((a+r_a)(b+r_b)).
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
