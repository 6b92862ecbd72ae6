package secio

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/knn"
	"repro/internal/paillier"
	"repro/internal/wire"
)

// The hosted kinds carry everything a data cloud needs to host one
// relation from a single file: the public modulus first, so that every
// ciphertext after it is capped at |N²| bytes, then the relation. Top-k
// relations, a cluster member's share among them, travel as
// "hosted-mutable" bundles (mutate.go).

// WriteHostedJoinRelation serializes an encrypted join relation with its
// public key and score-bit bound: integer(N) uvarint(MaxScoreBits) EHL
// parameters string(Name) uvarint(n) uvarint(m), then per tuple one cell
// list of m cells (each attribute's EHL digests, then its value).
func WriteHostedJoinRelation(w io.Writer, er *join.EncRelation, params ehl.Params, maxScoreBits int, pk *paillier.PublicKey) error {
	return write(w, "hosted-join-relation", func(w *wire.Writer) {
		if er == nil || len(er.Tuples) != er.N {
			w.Fail("secio: nil join relation or tuples that disagree with N")
			return
		}
		putKey(w, pk)
		w.Int("MaxScoreBits", maxScoreBits)
		putEHL(w, params)
		w.String(er.Name)
		w.Int("N", er.N)
		w.Int("M", er.M)
		for _, tuple := range er.Tuples {
			if len(tuple) != er.M {
				w.Fail("secio: join tuple of %d attributes for M=%d", len(tuple), er.M)
				return
			}
			putCells(w, "tuple", len(tuple), params.Width(), func(i int) (*ehl.List, *paillier.Ciphertext) {
				return tuple[i].EHL, tuple[i].Value
			})
		}
	})
}

// ReadHostedJoinRelation deserializes a join relation bundle.
func ReadHostedJoinRelation(r io.Reader) (er *join.EncRelation, params ehl.Params, maxScoreBits int, pk *paillier.PublicKey, err error) {
	err = read(r, "hosted-join-relation", func(r *wire.Reader) {
		pk, maxScoreBits, params = getKey(r), r.Int("MaxScoreBits"), getEHL(r)
		er = &join.EncRelation{Name: r.String("Name"), N: r.Count("N", 1), M: r.Int("M")}
		if r.Err() != nil {
			return
		}
		er.Tuples = make([][]join.EncAttr, er.N)
		for i := range er.Tuples {
			cells := getCells(r, "tuple", er.M, params)
			if r.Err() != nil {
				return
			}
			tuple := make([]join.EncAttr, len(cells))
			for j, c := range cells {
				tuple[j] = join.EncAttr{EHL: c.ehl, Value: c.ct}
			}
			er.Tuples[i] = tuple
		}
	})
	if err != nil {
		return nil, ehl.Params{}, 0, nil, err
	}
	return er, params, maxScoreBits, pk, nil
}

// WriteHostedKNNRelation serializes an encrypted kNN database with its
// public key and score-bit bound: integer(N) uvarint(MaxScoreBits)
// string(Name) uvarint(n) uvarint(m) uvarint(digests),
// then per record one integer list: its id's digests, then its m values.
func WriteHostedKNNRelation(w io.Writer, db *knn.EncDatabase, maxScoreBits int, pk *paillier.PublicKey) error {
	return write(w, "hosted-knn-relation", func(w *wire.Writer) {
		if db == nil || len(db.Records) != db.N || db.N == 0 || db.Records[0].ID == nil {
			w.Fail("secio: nil or empty kNN database, or records that disagree with N")
			return
		}
		id := db.Records[0].ID
		putKey(w, pk)
		w.Int("MaxScoreBits", maxScoreBits)
		w.String(db.Name)
		w.Int("N", db.N)
		w.Int("M", db.M)
		w.Int("EHL s", len(id.Cts))
		var vs []*big.Int
		for i, rec := range db.Records {
			if rec.ID == nil || len(rec.ID.Cts) != len(id.Cts) || len(rec.Values) != db.M {
				w.Fail("secio: malformed kNN record %d", i)
				return
			}
			vs = appendCts(appendCts(vs[:0], rec.ID.Cts...), rec.Values...)
			w.Bigs("record", vs)
		}
	})
}

// ReadHostedKNNRelation deserializes a kNN database bundle.
func ReadHostedKNNRelation(r io.Reader) (db *knn.EncDatabase, maxScoreBits int, pk *paillier.PublicKey, err error) {
	err = read(r, "hosted-knn-relation", func(r *wire.Reader) {
		pk, maxScoreBits = getKey(r), r.Int("MaxScoreBits")
		db = &knn.EncDatabase{Name: r.String("Name"), N: r.Count("N", 1), M: r.Int("M")}
		digests := getDigests(r)
		if r.Err() != nil {
			return
		}
		db.Records = make([]knn.EncRecord, db.N)
		for i := range db.Records {
			vs := r.Bigs("record")
			if r.Err() == nil && len(vs)-digests != db.M {
				r.Fail("secio: kNN record %d holds %d ciphertexts for %d digests and M=%d", i, len(vs), digests, db.M)
			}
			if r.Err() != nil {
				return
			}
			cts := ctList(vs)
			db.Records[i] = knn.EncRecord{ID: &ehl.List{Cts: cts[:digests:digests]}, Values: cts[digests:]}
		}
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return db, maxScoreBits, pk, nil
}

// maxShardCount bounds a decoded shard count.
const maxShardCount = 1 << 16

// checkSubsetPlacement validates a relation's placement: a sane total, at
// least one hosted index, every index in range, no duplicates.
func checkSubsetPlacement(total int, indices []int) error {
	if total < 1 || total > maxShardCount || len(indices) < 1 || len(indices) > total {
		return fmt.Errorf("secio: subset hosts %d of %d shards", len(indices), total)
	}
	seen := make(map[int]bool, len(indices))
	for _, ix := range indices {
		if ix < 0 || ix >= total || seen[ix] {
			return fmt.Errorf("secio: subset shard index %d out of range [0,%d) or duplicated", ix, total)
		}
		seen[ix] = true
	}
	return nil
}
