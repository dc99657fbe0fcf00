package drl

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spear/internal/nn"
)

// TestShippedModelLoads checks that the pre-trained policy in models/ still
// decodes and is the paper's 256/32/32 network over DefaultFeatures, so
// `-model models/policy.gob` works as documented.
func TestShippedModelLoads(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "models", "policy.gob"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := nn.Load(f)
	if err != nil {
		t.Fatalf("models/policy.gob: %v", err)
	}
	feat := DefaultFeatures()
	want := []int{feat.InputSize(), 256, 32, 32, feat.OutputSize()}
	if got := net.Sizes(); !slices.Equal(got, want) {
		t.Fatalf("models/policy.gob has layer sizes %v, want %v (DefaultFeatures)", got, want)
	}
}
