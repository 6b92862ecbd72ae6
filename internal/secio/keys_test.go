package secio

import (
	"bytes"
	"testing"
)

func TestKeyMaterialRoundTrip(t *testing.T) {
	r := getRig(t)
	keys := r.scheme.KeyMaterial()
	var buf bytes.Buffer
	if err := WriteKeyMaterial(&buf, keys); err != nil {
		t.Fatalf("WriteKeyMaterial: %v", err)
	}
	loaded, err := ReadKeyMaterial(&buf)
	if err != nil {
		t.Fatalf("ReadKeyMaterial: %v", err)
	}
	if loaded.Paillier.N.Cmp(keys.Paillier.N) != 0 {
		t.Fatal("modulus changed across serialization")
	}
	// The reloaded key must decrypt ciphertexts made under the original.
	ct, err := keys.Paillier.PublicKey.EncryptInt64(4242)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loaded.Paillier.Decrypt(ct)
	if err != nil {
		t.Fatalf("decrypt with reloaded key: %v", err)
	}
	if m.Int64() != 4242 {
		t.Fatalf("reloaded key decrypted %v", m)
	}
	// And the DJ layer must work too.
	dct, err := loaded.DJ.EncryptInt64(7)
	if err != nil {
		t.Fatal(err)
	}
	if dm, err := keys.DJ.Decrypt(dct); err != nil || dm.Int64() != 7 {
		t.Fatalf("DJ cross-decrypt failed: %v %v", dm, err)
	}
	if err := WriteKeyMaterial(&buf, nil); err == nil {
		t.Fatal("expected error for nil keys")
	}
}
