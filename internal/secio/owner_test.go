package secio

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestOwnerBundleRoundTrip(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOwnerBundle(&buf, r.scheme); err != nil {
		t.Fatalf("WriteOwnerBundle: %v", err)
	}
	restored, err := ReadOwnerBundle(&buf)
	if err != nil {
		t.Fatalf("ReadOwnerBundle: %v", err)
	}
	// The restored scheme must issue tokens valid for the ORIGINAL
	// encrypted relation (the PRP key survived) ...
	tk, err := restored.Token(er, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(r.client, er)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE})
	if err != nil {
		t.Fatalf("SecQuery with restored token: %v", err)
	}
	// ... and reveal the results (the EHL master key survived).
	rev, err := restored.NewRevealer(er.N)
	if err != nil {
		t.Fatal(err)
	}
	revealed, err := rev.RevealTopK(res.Items)
	if err != nil {
		t.Fatalf("RevealTopK with restored scheme: %v", err)
	}
	if revealed[0].Obj != 2 || revealed[0].Worst != 18 {
		t.Fatalf("restored-scheme result = %+v", revealed[0])
	}
	if err := WriteOwnerBundle(&buf, nil); err == nil {
		t.Fatal("expected error for nil scheme")
	}
}

func TestOwnerBundleFile(t *testing.T) {
	r := getRig(t)
	path := filepath.Join(t.TempDir(), "owner.bundle")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteOwnerBundle(f, r.scheme); err != nil {
		t.Fatalf("WriteOwnerBundle: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := ReadOwnerBundle(f)
	if err != nil {
		t.Fatalf("ReadOwnerBundle: %v", err)
	}
	if restored.PublicKey().N.Cmp(r.scheme.PublicKey().N) != 0 {
		t.Fatal("restored scheme has different modulus")
	}
}

func TestRestoreSchemeValidation(t *testing.T) {
	r := getRig(t)
	params := r.scheme.Params()
	keys := r.scheme.KeyMaterial()
	secrets := r.scheme.Secrets()
	if _, err := core.RestoreScheme(params, nil, secrets); err == nil {
		t.Fatal("expected error for nil keys")
	}
	if _, err := core.RestoreScheme(params, keys, core.Secrets{}); err == nil {
		t.Fatal("expected error for empty secrets")
	}
	if _, err := core.RestoreScheme(core.Params{}, keys, secrets); err == nil {
		t.Fatal("expected error for invalid params")
	}
}
