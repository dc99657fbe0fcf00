package drl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"spear/internal/nn"
)

// TestPretrainGolden pins the exact output of a fixed-seed Pretrain run: the
// sha256 of the saved weights and the bits of every epoch loss. The batch
// size leaves a short final minibatch, so both full and partial batches are
// covered. Any change to the supervised update's arithmetic or sample order
// shows up here.
func TestPretrainGolden(t *testing.T) {
	feat := testFeatures()
	jobs, capacity := testJobs(t, 3, 8, 41)
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	losses, err := Pretrain(net, feat, jobs, capacity, PretrainConfig{
		Epochs:    4,
		BatchSize: 7,
		Opt:       nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8},
	}, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatalf("Pretrain: %v", err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	gotHash := hex.EncodeToString(sum[:])
	gotLosses := make([]uint64, len(losses))
	for i, l := range losses {
		gotLosses[i] = math.Float64bits(l)
	}
	const wantHash = "c8d4a83e70af680921ed8975e55385d79a9637164ac1cffd895cc945045405aa"
	wantLosses := []uint64{0x3fb6f8d695b534d4, 0x3fad62049973ebb3, 0x3fa70598e0de0c7a, 0x3f9f9ef59b7b1beb}
	if gotHash != wantHash {
		t.Errorf("saved model sha256 = %s, want %s", gotHash, wantHash)
	}
	if len(gotLosses) != len(wantLosses) {
		t.Fatalf("got %d epoch losses, want %d", len(gotLosses), len(wantLosses))
	}
	for i := range wantLosses {
		if gotLosses[i] != wantLosses[i] {
			t.Errorf("epoch %d loss bits %#x (%v), want %#x (%v)",
				i, gotLosses[i], losses[i], wantLosses[i], math.Float64frombits(wantLosses[i]))
		}
	}
}
