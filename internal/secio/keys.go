package secio

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"
	"os"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/protocols"
)

// wireKeys carries the factorization; everything else is derived on load.
type wireKeys struct {
	P, Q *big.Int
}

// WriteKeyMaterial serializes the secret key material the data owner
// provisions to the crypto cloud S2. Handle with the care the trust model
// demands: whoever reads this stream can decrypt the database.
func WriteKeyMaterial(w io.Writer, keys *cloud.KeyMaterial) error {
	if keys == nil || keys.Paillier == nil {
		return errors.New("secio: nil key material")
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "keys"}); err != nil {
		return err
	}
	return enc.Encode(wireKeys{P: keys.Paillier.P, Q: keys.Paillier.Q})
}

// ReadKeyMaterial reconstructs key material from a stream.
func ReadKeyMaterial(r io.Reader) (*cloud.KeyMaterial, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	if err := h.check("keys"); err != nil {
		return nil, err
	}
	var wk wireKeys
	if err := dec.Decode(&wk); err != nil {
		return nil, err
	}
	if wk.P == nil || wk.Q == nil {
		return nil, errors.New("secio: incomplete key material")
	}
	sk, err := paillier.FromPrimes(wk.P, wk.Q)
	if err != nil {
		return nil, fmt.Errorf("secio: rebuilding key: %w", err)
	}
	return cloud.KeyMaterialFromPaillier(sk)
}

// SaveKeyMaterial writes key material to a file with owner-only
// permissions.
func SaveKeyMaterial(path string, keys *cloud.KeyMaterial) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if err := WriteKeyMaterial(f, keys); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadKeyMaterial reads key material from a file.
func LoadKeyMaterial(path string) (*cloud.KeyMaterial, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadKeyMaterial(f)
}

// wireOwnerBundle persists everything the data owner needs to restore the
// scheme: the factorization, the scheme parameters, and the symmetric
// secrets. The kNN digest key is deliberately NOT stored — the facade
// derives it deterministically from Master (domain-separated), so old
// and new bundles restore identically.
type wireOwnerBundle struct {
	P, Q         *big.Int
	KeyBits      int
	EHLKind      int
	EHLS, EHLH   int
	MaxScoreBits int
	Master, Perm []byte
}

// WriteOwnerBundle persists the owner's full scheme state. This stream
// must never leave the owner (it contains everything).
func WriteOwnerBundle(w io.Writer, scheme *core.Scheme) error {
	if scheme == nil {
		return errors.New("secio: nil scheme")
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "owner"}); err != nil {
		return err
	}
	params := scheme.Params()
	secrets := scheme.Secrets()
	keys := scheme.KeyMaterial()
	return enc.Encode(wireOwnerBundle{
		P: keys.Paillier.P, Q: keys.Paillier.Q,
		KeyBits: params.KeyBits,
		EHLKind: int(params.EHL.Kind), EHLS: params.EHL.S, EHLH: params.EHL.H,
		MaxScoreBits: params.MaxScoreBits,
		Master:       secrets.Master, Perm: secrets.Perm,
	})
}

// ReadOwnerBundle restores the owner's scheme.
func ReadOwnerBundle(r io.Reader) (*core.Scheme, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	if err := h.check("owner"); err != nil {
		return nil, err
	}
	var wb wireOwnerBundle
	if err := dec.Decode(&wb); err != nil {
		return nil, err
	}
	sk, err := paillier.FromPrimes(wb.P, wb.Q)
	if err != nil {
		return nil, fmt.Errorf("secio: rebuilding key: %w", err)
	}
	keys, err := cloud.KeyMaterialFromPaillier(sk)
	if err != nil {
		return nil, err
	}
	params := core.Params{
		KeyBits:      wb.KeyBits,
		EHL:          ehl.Params{Kind: ehl.Kind(wb.EHLKind), S: wb.EHLS, H: wb.EHLH},
		MaxScoreBits: wb.MaxScoreBits,
	}
	return core.RestoreScheme(params, keys, core.Secrets{Master: wb.Master, Perm: wb.Perm})
}

// SaveOwnerBundle writes the owner bundle to a 0600 file.
func SaveOwnerBundle(path string, scheme *core.Scheme) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if err := WriteOwnerBundle(f, scheme); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOwnerBundle reads an owner bundle from a file.
func LoadOwnerBundle(path string) (*core.Scheme, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadOwnerBundle(f)
}

// wirePub carries just the public modulus, embedded in every hosted
// bundle so S1 can host from a single file.
type wirePub struct {
	N *big.Int
}

// wireItem flattens one result item.
type wireItem struct {
	EHL    []*big.Int
	Scores []*big.Int
}

// wireItems carries a query result.
type wireItems struct {
	EHLKind int
	Items   []wireItem
}

// encodeItems flattens result items to their wire form.
func encodeItems(items []protocols.Item) (*wireItems, error) {
	wi := &wireItems{}
	for i, it := range items {
		if it.EHL == nil {
			return nil, fmt.Errorf("secio: item %d missing EHL", i)
		}
		wi.EHLKind = int(it.EHL.Kind)
		row := wireItem{}
		for _, ct := range it.EHL.Cts {
			row.EHL = append(row.EHL, ct.C)
		}
		for _, s := range it.Scores {
			if s == nil {
				return nil, fmt.Errorf("secio: item %d has nil score", i)
			}
			row.Scores = append(row.Scores, s.C)
		}
		wi.Items = append(wi.Items, row)
	}
	return wi, nil
}

// decodeItems rebuilds result items from their wire form.
func decodeItems(wi *wireItems) []protocols.Item {
	out := make([]protocols.Item, len(wi.Items))
	for i, row := range wi.Items {
		it := protocols.Item{EHL: &ehl.List{Kind: ehl.Kind(wi.EHLKind)}}
		for _, v := range row.EHL {
			it.EHL.Cts = append(it.EHL.Cts, &paillier.Ciphertext{C: v})
		}
		for _, v := range row.Scores {
			it.Scores = append(it.Scores, &paillier.Ciphertext{C: v})
		}
		out[i] = it
	}
	return out
}
