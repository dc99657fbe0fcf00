package nn

import (
	"errors"
	"math/rand"
	"testing"
)

// TestForwardIntoMatchesForward pins the one-row forward pass to the
// reference layer loop, bit for bit.
func TestForwardIntoMatchesForward(t *testing.T) {
	n := newNet(t, 4, 6, 5, 3)
	s := n.NewScratch()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, 4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		acts := referenceForward(n, x)
		want := acts[len(acts)-1]
		logits, err := n.ForwardInto(s, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !sameBits(logits[i], want[i]) {
				t.Fatalf("trial %d logit %d: ForwardInto %g, reference %g", trial, i, logits[i], want[i])
			}
		}
	}
	if _, err := n.ForwardInto(s, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad input err = %v", err)
	}
}

// TestProbsIntoMatchesProbs pins the one-row ProbsBatchInto to the
// reference forward pass plus softmax, and checks that it returns the
// scratch's own probs buffer, reused on every call.
func TestProbsIntoMatchesProbs(t *testing.T) {
	n := newNet(t, 3, 5, 4)
	s := n.NewScratch()
	x := []float64{0.3, -0.7, 1.1}
	mask := []bool{true, false, true, true}
	want := referenceProbs(t, n, x, mask)
	got, err := n.ProbsBatchInto(s, x, 1, mask)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Errorf("prob %d: ProbsBatchInto %g, reference %g", i, got[i], want[i])
		}
	}
	again, err := n.ProbsBatchInto(s, x, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &got[0] {
		t.Error("ProbsBatchInto did not reuse the scratch probs buffer")
	}
}

// TestBackwardIntoMatchesBackward pins the one-row BackwardBatchInto, fed by
// ForwardInto, to the reference one-sample backward pass, bit for bit.
func TestBackwardIntoMatchesBackward(t *testing.T) {
	n := newNet(t, 4, 6, 5, 3)
	s := n.NewScratch()
	rng := rand.New(rand.NewSource(23))
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	acts := referenceForward(n, x)
	probs, err := referenceSoftmax(acts[len(acts)-1], nil)
	if err != nil {
		t.Fatal(err)
	}
	dLogits := append([]float64(nil), probs...)
	dLogits[1] -= 1

	want := n.NewGrads()
	n.referenceBackprop(acts, dLogits, make([]float64, n.widest()), make([]float64, n.widest()), want)

	if _, err := n.ForwardInto(s, x); err != nil {
		t.Fatal(err)
	}
	got := n.NewGrads()
	if err := n.BackwardBatchInto(s, dLogits, 1, got); err != nil {
		t.Fatal(err)
	}
	sameGrads(t, got, want)
}

// TestSoftmaxIntoMatchesSoftmax pins softmaxInto to the allocating
// reference softmax: it writes into the given buffer, overwriting stale
// values in every slot, masked ones included.
func TestSoftmaxIntoMatchesSoftmax(t *testing.T) {
	logits := []float64{1.5, -0.5, 0.25, 3}
	mask := []bool{true, true, false, true}
	want, err := referenceSoftmax(logits, mask)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(logits))
	for i := range out {
		out[i] = 99
	}
	if err := softmaxInto(logits, mask, out); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameBits(out[i], want[i]) {
			t.Errorf("prob %d: softmaxInto %g, reference %g", i, out[i], want[i])
		}
	}
}

func TestScratchRejectsForeignNetwork(t *testing.T) {
	a := newNet(t, 3, 5, 2)
	b := newNet(t, 3, 4, 2)
	s := b.NewScratch()
	if _, err := a.ForwardInto(s, []float64{1, 2, 3}); err == nil {
		t.Error("scratch from a different topology accepted")
	}
	// A foreign scratch grown to several rows is still rejected.
	if _, err := b.ForwardBatchInto(s, make([]float64, 2*3), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ForwardBatchInto(s, make([]float64, 2*3), 2); err == nil {
		t.Error("grown scratch from a different topology accepted")
	}
}

func TestAddSamples(t *testing.T) {
	n := newNet(t, 2, 2)
	g := n.NewGrads()
	g.AddSamples(3)
	if g.Samples() != 3 {
		t.Errorf("Samples = %d, want 3", g.Samples())
	}
	g.AddSamples(1)
	if g.Samples() != 4 {
		t.Errorf("Samples = %d, want 4", g.Samples())
	}
}

// TestForwardIntoZeroAllocs gates the single-decision inference path: on a
// fresh scratch, the one-row forward pass and masked softmax must not touch
// the heap, since NewScratch already sizes the buffers for one row.
func TestForwardIntoZeroAllocs(t *testing.T) {
	n := newNet(t, 10, 16, 8, 4)
	s := n.NewScratch()
	x := make([]float64, 10)
	mask := make([]bool, 4)
	for i := range mask {
		mask[i] = true
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := n.ForwardInto(s, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ForwardInto allocates %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := n.ProbsBatchInto(s, x, 1, mask); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-row ProbsBatchInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestBackwardIntoZeroAllocs gates the single-sample backward pass, the
// rows=1 case of BackwardBatchInto.
func TestBackwardIntoZeroAllocs(t *testing.T) {
	n := newNet(t, 10, 16, 8, 4)
	s := n.NewScratch()
	g := n.NewGrads()
	x := make([]float64, 10)
	d := make([]float64, 4)
	d[0] = 1
	if _, err := n.ForwardInto(s, x); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.BackwardBatchInto(s, d, 1, g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("one-row BackwardBatchInto allocates %.1f times per run, want 0", allocs)
	}
}
