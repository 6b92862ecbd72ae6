package secio

import (
	"io"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/paillier"
	"repro/internal/secerr"
	"repro/internal/wire"
)

// The key-bearing kinds. "keys" is what the owner provisions to the crypto
// cloud S2: whoever reads it can decrypt the database. "owner" and
// "join-owner" are everything an owner needs to restore its scheme and
// must never leave it. Only the factorization is stored; everything else
// is derived on load (the kNN digest key too: the facade derives it from
// Master, domain-separated).

// putPrimes: integer(P) integer(Q).
func putPrimes(w *wire.Writer, keys *cloud.KeyMaterial) {
	if keys == nil || keys.Paillier == nil {
		w.Fail("secio: nil key material")
		return
	}
	w.Big("P", keys.Paillier.P)
	w.Big("Q", keys.Paillier.Q)
}

// keysFrom rebuilds key material from a decoded factorization.
func keysFrom(p, q *big.Int) (*cloud.KeyMaterial, error) {
	sk, err := paillier.FromPrimes(p, q)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "secio: rebuilding key")
	}
	keys, err := cloud.KeyMaterialFromPaillier(sk)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "secio: rebuilding key")
	}
	return keys, nil
}

// WriteKeyMaterial serializes the secret key material the data owner
// provisions to the crypto cloud S2.
func WriteKeyMaterial(w io.Writer, keys *cloud.KeyMaterial) error {
	return write(w, "keys", func(w *wire.Writer) { putPrimes(w, keys) })
}

// ReadKeyMaterial reconstructs key material from a stream.
func ReadKeyMaterial(r io.Reader) (*cloud.KeyMaterial, error) {
	var p, q *big.Int
	if err := read(r, "keys", func(r *wire.Reader) { p, q = r.Big("P"), r.Big("Q") }); err != nil {
		return nil, err
	}
	return keysFrom(p, q)
}

// ownerBundle is the body of both owner kinds:
// integer(P) integer(Q) uvarint(KeyBits) EHL parameters uvarint(MaxScoreBits)
// bytes(Master) bytes(Perm).
type ownerBundle struct {
	keys                  *cloud.KeyMaterial
	p, q                  *big.Int
	keyBits, maxScoreBits int
	ehl                   ehl.Params
	master, perm          []byte
}

func (b *ownerBundle) put(w *wire.Writer) {
	putPrimes(w, b.keys)
	w.Int("KeyBits", b.keyBits)
	putEHL(w, b.ehl)
	w.Int("MaxScoreBits", b.maxScoreBits)
	w.Bytes(b.master)
	w.Bytes(b.perm)
}

func (b *ownerBundle) get(r *wire.Reader) {
	b.p, b.q, b.keyBits = r.Big("P"), r.Big("Q"), r.Int("KeyBits")
	b.ehl, b.maxScoreBits = getEHL(r), r.Int("MaxScoreBits")
	b.master, b.perm = r.Bytes("Master"), r.Bytes("Perm")
}

// WriteOwnerBundle persists the owner's full scheme state.
func WriteOwnerBundle(w io.Writer, scheme *core.Scheme) error {
	var b ownerBundle
	if scheme != nil {
		params, secrets := scheme.Params(), scheme.Secrets()
		b = ownerBundle{keys: scheme.KeyMaterial(), keyBits: params.KeyBits, ehl: params.EHL,
			maxScoreBits: params.MaxScoreBits, master: secrets.Master, perm: secrets.Perm}
	}
	return write(w, "owner", b.put)
}

// ReadOwnerBundle restores the owner's scheme.
func ReadOwnerBundle(r io.Reader) (*core.Scheme, error) {
	var b ownerBundle
	if err := read(r, "owner", b.get); err != nil {
		return nil, err
	}
	keys, err := keysFrom(b.p, b.q)
	if err != nil {
		return nil, err
	}
	params := core.Params{KeyBits: b.keyBits, EHL: b.ehl, MaxScoreBits: b.maxScoreBits}
	scheme, err := core.RestoreScheme(params, keys, core.Secrets{Master: b.master, Perm: b.perm})
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "secio: restoring owner")
	}
	return scheme, nil
}

// WriteJoinOwnerBundle persists the join owner's full scheme state.
func WriteJoinOwnerBundle(w io.Writer, scheme *join.Scheme) error {
	var b ownerBundle
	if scheme != nil {
		params, secrets := scheme.Params(), scheme.Secrets()
		b = ownerBundle{keys: scheme.KeyMaterial(), keyBits: params.KeyBits, ehl: params.EHL,
			maxScoreBits: params.MaxScoreBits, master: secrets.Master, perm: secrets.Perm}
	}
	return write(w, "join-owner", b.put)
}

// ReadJoinOwnerBundle restores a join owner's scheme.
func ReadJoinOwnerBundle(r io.Reader) (*join.Scheme, error) {
	var b ownerBundle
	if err := read(r, "join-owner", b.get); err != nil {
		return nil, err
	}
	keys, err := keysFrom(b.p, b.q)
	if err != nil {
		return nil, err
	}
	params := join.Params{KeyBits: b.keyBits, EHL: b.ehl, MaxScoreBits: b.maxScoreBits}
	scheme, err := join.RestoreScheme(params, keys, join.Secrets{Master: b.master, Perm: b.perm})
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "secio: restoring join owner")
	}
	return scheme, nil
}
