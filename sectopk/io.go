package sectopk

import (
	"io"
	"os"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/secio"
	"repro/internal/shard"
)

// Persistence for the artifacts a deployment moves between parties.
// Every file is one secio stream (magic, format version, kind, then the
// kind's fields in the internal/wire codec); files that hold keys or
// plaintext are written owner-only. The same secio codecs back the client
// wire protocol, so a stored token or encrypted answer is byte-identical
// to its wire payload.

// File modes: publicFile holds only public or encrypted material, privateFile
// holds keys or plaintext.
const (
	publicFile  os.FileMode = 0o666
	privateFile os.FileMode = 0o600
)

// saveTo creates path with the given mode (umask applied) and streams one
// artifact into it.
func saveTo(path string, perm os.FileMode, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadFrom opens path and parses one artifact out of it.
func loadFrom(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(f)
}

// Save persists the owner's full scheme state (keys and symmetric
// secrets) to a 0600 file. The bundle must never leave the owner.
func (o *Owner) Save(path string) error {
	return saveTo(path, privateFile, func(w io.Writer) error {
		return secio.WriteOwnerBundle(w, o.scheme)
	})
}

// LoadOwner restores an owner from a saved bundle. Relations, tokens,
// and results produced by the original owner remain valid — including
// kNN record stores, whose digest key is derived deterministically from
// the bundled secrets (so even bundles written before the kNN workload
// existed restore it). The bundle fixes the key material, so
// key-generation options are ignored; pass Enc-time options
// (WithShards) to re-apply them — the bundle does not record them, and
// omitting them restores an unsharded owner.
func LoadOwner(path string, opts ...Option) (*Owner, error) {
	var scheme *core.Scheme
	err := loadFrom(path, func(r io.Reader) (err error) {
		scheme, err = secio.ReadOwnerBundle(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return newOwner(scheme, buildConfig(opts).shards), nil
}

// Save persists the join owner's full scheme state to a 0600 file. The
// bundle must never leave the owner.
func (o *JoinOwner) Save(path string) error {
	return saveTo(path, privateFile, func(w io.Writer) error {
		return secio.WriteJoinOwnerBundle(w, o.scheme)
	})
}

// LoadJoinOwner restores a join owner from a saved bundle. Relations,
// tokens, and results produced by the original owner remain valid.
func LoadJoinOwner(path string) (*JoinOwner, error) {
	var scheme *join.Scheme
	err := loadFrom(path, func(r io.Reader) (err error) {
		scheme, err = secio.ReadJoinOwnerBundle(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &JoinOwner{scheme: scheme}, nil
}

// Save persists the key material for provisioning a CryptoCloud
// (0600 file: whoever reads it can decrypt the owner's data).
func (k *Keys) Save(path string) error {
	return saveTo(path, privateFile, func(w io.Writer) error {
		return secio.WriteKeyMaterial(w, k.km)
	})
}

// LoadKeys reads provisioned key material.
func LoadKeys(path string) (*Keys, error) {
	var km *cloud.KeyMaterial
	err := loadFrom(path, func(r io.Reader) (err error) {
		km, err = secio.ReadKeyMaterial(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Keys{km: km}, nil
}

// Save persists the encrypted relation (with its public key) for upload
// to a data cloud. Only public/encrypted material is written. The bundle
// is always the "hosted-mutable" kind — shards, epoch, tombstones, id
// space — a fresh encryption being epoch 1 with no tombstones.
func (er *EncryptedRelation) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		st, err := er.mutableState()
		if err != nil {
			return err
		}
		return secio.WriteMutableHosted(w, st, er.pk)
	})
}

// LoadEncryptedRelation reads an encrypted relation bundle; every loaded
// relation is Apply-ready.
func LoadEncryptedRelation(path string) (*EncryptedRelation, error) {
	var out *EncryptedRelation
	err := loadFrom(path, func(r io.Reader) error {
		st, pk, err := secio.ReadMutableHosted(r)
		if err != nil {
			return err
		}
		sh, err := shard.New(st.LiveShards())
		if err != nil {
			return err
		}
		out = &EncryptedRelation{sh: sh, pk: pk, mst: st}
		return nil
	})
	return out, err
}

// Save persists an encrypted join relation bundle.
func (er *EncryptedJoinRelation) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		params := ehl.Params{Kind: ehl.KindPlus, S: er.ehlS}
		return secio.WriteHostedJoinRelation(w, er.er, params, er.maxScoreBits, er.pk)
	})
}

// LoadEncryptedJoinRelation reads an encrypted join relation bundle.
func LoadEncryptedJoinRelation(path string) (*EncryptedJoinRelation, error) {
	var out *EncryptedJoinRelation
	err := loadFrom(path, func(r io.Reader) error {
		er, params, maxScoreBits, pk, err := secio.ReadHostedJoinRelation(r)
		if err != nil {
			return err
		}
		out = &EncryptedJoinRelation{er: er, pk: pk, ehlS: params.S, maxScoreBits: maxScoreBits}
		return nil
	})
	return out, err
}

// Save persists an encrypted kNN relation bundle for upload to a data
// cloud. Only public/encrypted material is written.
func (er *EncryptedKNNRelation) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteHostedKNNRelation(w, er.db, er.maxScoreBits, er.pk)
	})
}

// LoadEncryptedKNNRelation reads an encrypted kNN relation bundle.
func LoadEncryptedKNNRelation(path string) (*EncryptedKNNRelation, error) {
	var out *EncryptedKNNRelation
	err := loadFrom(path, func(r io.Reader) error {
		db, maxScoreBits, pk, err := secio.ReadHostedKNNRelation(r)
		if err != nil {
			return err
		}
		out = &EncryptedKNNRelation{db: db, pk: pk, maxScoreBits: maxScoreBits}
		return nil
	})
	return out, err
}

// Save persists a query token (what an authorized client sends to S1).
func (t *Token) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteToken(w, t.tk)
	})
}

// LoadToken reads a query token.
func LoadToken(path string) (*Token, error) {
	var out *Token
	err := loadFrom(path, func(r io.Reader) error {
		tk, err := secio.ReadToken(r)
		if err != nil {
			return err
		}
		out = &Token{tk: tk}
		return nil
	})
	return out, err
}

// Save persists a join token.
func (t *JoinToken) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteJoinToken(w, t.tk)
	})
}

// LoadJoinToken reads a join token.
func LoadJoinToken(path string) (*JoinToken, error) {
	var out *JoinToken
	err := loadFrom(path, func(r io.Reader) error {
		tk, err := secio.ReadJoinToken(r)
		if err != nil {
			return err
		}
		out = &JoinToken{tk: tk}
		return nil
	})
	return out, err
}

// Save persists a kNN token (what an authorized client sends to S1).
func (t *KNNToken) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteKNNToken(w, t.point, t.k)
	})
}

// LoadKNNToken reads a kNN token.
func LoadKNNToken(path string) (*KNNToken, error) {
	var out *KNNToken
	err := loadFrom(path, func(r io.Reader) error {
		point, k, err := secio.ReadKNNToken(r)
		if err != nil {
			return err
		}
		out = &KNNToken{point: point, k: k}
		return nil
	})
	return out, err
}

// Save persists an encrypted query result (what S1 returns to the
// client for revealing).
func (r *EncryptedResult) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteQueryResult(w, r.items, r.Depth, r.Halted)
	})
}

// LoadEncryptedResult reads an encrypted query result.
func LoadEncryptedResult(path string) (*EncryptedResult, error) {
	var out *EncryptedResult
	err := loadFrom(path, func(r io.Reader) error {
		items, depth, halted, err := secio.ReadQueryResult(r)
		if err != nil {
			return err
		}
		out = &EncryptedResult{items: items, Depth: depth, Halted: halted}
		return nil
	})
	return out, err
}

// Save persists an encrypted join result (what S1 returns to the client
// for revealing).
func (r *EncryptedJoinResult) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteJoinResult(w, r.tuples)
	})
}

// LoadEncryptedJoinResult reads an encrypted join result.
func LoadEncryptedJoinResult(path string) (*EncryptedJoinResult, error) {
	var out *EncryptedJoinResult
	err := loadFrom(path, func(r io.Reader) error {
		tuples, err := secio.ReadJoinResult(r)
		if err != nil {
			return err
		}
		out = &EncryptedJoinResult{tuples: tuples}
		return nil
	})
	return out, err
}

// Save persists an encrypted kNN result (what S1 returns to the client
// for revealing).
func (r *EncryptedKNNResult) Save(path string) error {
	return saveTo(path, publicFile, func(w io.Writer) error {
		return secio.WriteKNNResult(w, r.items)
	})
}

// LoadEncryptedKNNResult reads an encrypted kNN result.
func LoadEncryptedKNNResult(path string) (*EncryptedKNNResult, error) {
	var out *EncryptedKNNResult
	err := loadFrom(path, func(r io.Reader) error {
		items, err := secio.ReadKNNResult(r)
		if err != nil {
			return err
		}
		out = &EncryptedKNNResult{items: items}
		return nil
	})
	return out, err
}
