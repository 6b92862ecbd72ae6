package sectopk

import (
	"errors"
	"testing"

	"repro/internal/knn"
)

// TestValidateKNNPoint pins the coordinate-bound check shared by token
// issue and the execution path, including the wide-bits edge where a
// naive 1<<bits shift would overflow int64 and reject everything.
func TestValidateKNNPoint(t *testing.T) {
	if err := knn.ValidatePoint([]int64{0, 7}, 3); err != nil {
		t.Fatalf("in-range point rejected: %v", err)
	}
	if err := knn.ValidatePoint([]int64{8}, 3); !errors.Is(err, ErrInvalidToken) {
		t.Fatalf("out-of-range point: err = %v, want ErrInvalidToken", err)
	}
	if err := knn.ValidatePoint([]int64{-1}, 3); !errors.Is(err, ErrInvalidToken) {
		t.Fatalf("negative coordinate: err = %v, want ErrInvalidToken", err)
	}
	// bits >= 63 admits every non-negative int64 instead of overflowing
	// the bound into rejection of all inputs.
	for _, bits := range []int{63, 64, 100} {
		if err := knn.ValidatePoint([]int64{1 << 62}, bits); err != nil {
			t.Fatalf("bits=%d rejected a valid wide coordinate: %v", bits, err)
		}
		if err := knn.ValidatePoint([]int64{-1}, bits); !errors.Is(err, ErrInvalidToken) {
			t.Fatalf("bits=%d accepted a negative coordinate: %v", bits, err)
		}
	}
}
