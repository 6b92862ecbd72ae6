package dj

import "testing"

func TestDecryptInnerBatch(t *testing.T) {
	psk, sk := keys(t)
	const n = 8
	outer := make([]*Ciphertext, n)
	for i := range outer {
		ict, err := psk.PublicKey.EncryptInt64(int64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		ct, err := sk.EncryptInner(ict)
		if err != nil {
			t.Fatal(err)
		}
		outer[i] = ct
	}
	recovered, err := sk.DecryptInnerBatch(outer)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range recovered {
		m, err := psk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if m.Int64() != int64(100+i) {
			t.Fatalf("inner batch slot %d: got %v", i, m)
		}
	}
}
