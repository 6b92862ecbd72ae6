package core

import "testing"

// TestSchemeHasherEncryptsThroughOwnerSurface pins that the owner's EHL
// digests and scores share one encryption surface on both constructors.
func TestSchemeHasherEncryptsThroughOwnerSurface(t *testing.T) {
	r := getRig(t)
	params := r.scheme.Params()
	fresh, err := NewSchemeFromKeys(params, r.scheme.KeyMaterial())
	if err != nil {
		t.Fatalf("NewSchemeFromKeys: %v", err)
	}
	restored, err := RestoreScheme(params, r.scheme.KeyMaterial(), r.scheme.Secrets())
	if err != nil {
		t.Fatalf("RestoreScheme: %v", err)
	}
	for name, s := range map[string]*Scheme{"fresh": fresh, "restored": restored} {
		if s.hasher.Encryptor() != s.enc {
			t.Fatalf("%s: the hasher encrypts through another surface than the scores", name)
		}
	}
}
