package nn

import (
	"math"
	"testing"
)

// The single-sample reference implementations the batch kernels replaced,
// kept as test oracles: a plain layer loop over referenceDense, the
// allocating masked softmax, and the one-sample backward pass.

// referenceForward returns every layer's activations for input x: acts[0]
// is x, acts[l+1] the post-ReLU activation of layer l (raw logits last).
func referenceForward(n *Network, x []float64) [][]float64 {
	acts := make([][]float64, len(n.sizes))
	acts[0] = append([]float64(nil), x...)
	last := len(n.weights) - 1
	for l, w := range n.weights {
		acts[l+1] = make([]float64, n.sizes[l+1])
		referenceDense(w, n.biases[l], acts[l], acts[l+1], l != last)
	}
	return acts
}

// referenceSoftmax is the masked softmax into a fresh slice; entries where
// mask is false get probability zero and a nil mask allows everything.
func referenceSoftmax(logits []float64, mask []bool) ([]float64, error) {
	max := math.Inf(-1)
	any := false
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		any = true
		if v > max {
			max = v
		}
	}
	if !any {
		return nil, ErrAllMasked
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// referenceProbs is referenceForward followed by referenceSoftmax.
func referenceProbs(t *testing.T, n *Network, x []float64, mask []bool) []float64 {
	t.Helper()
	acts := referenceForward(n, x)
	p, err := referenceSoftmax(acts[len(acts)-1], mask)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// referenceBackprop is the one-sample backward pass: it accumulates the
// gradients of the forward pass whose activations are acts into g,
// ping-ponging the per-layer deltas through bufA and bufB, each at least as
// long as the widest layer.
func (n *Network) referenceBackprop(acts [][]float64, dLogits, bufA, bufB []float64, g *Grads) {
	delta := bufA[:len(dLogits)]
	spare := bufB
	copy(delta, dLogits)
	for l := len(n.weights) - 1; l >= 0; l-- {
		in := n.sizes[l]
		prev := acts[l]
		// Parameter gradients.
		for j, dj := range delta {
			g.b[l][j] += dj
			row := g.w[l][j*in : (j+1)*in]
			for i, pi := range prev {
				row[i] += dj * pi
			}
		}
		if l == 0 {
			break
		}
		// Propagate to the previous layer through W and the ReLU.
		nextDelta := spare[:in]
		for i := range nextDelta {
			nextDelta[i] = 0
		}
		w := n.weights[l]
		for j, dj := range delta {
			row := w[j*in : (j+1)*in]
			for i := range nextDelta {
				nextDelta[i] += dj * row[i]
			}
		}
		for i := range nextDelta {
			if prev[i] <= 0 { // ReLU derivative
				nextDelta[i] = 0
			}
		}
		delta, spare = nextDelta, delta[:cap(delta)]
	}
	g.n++
}

// sameGrads fails unless got and want hold bit-identical gradients and the
// same sample count.
func sameGrads(t *testing.T, got, want *Grads) {
	t.Helper()
	if got.Samples() != want.Samples() {
		t.Fatalf("samples: got %d, want %d", got.Samples(), want.Samples())
	}
	for l := range want.w {
		for i := range want.w[l] {
			if !sameBits(got.w[l][i], want.w[l][i]) {
				t.Fatalf("layer %d weight %d: got %g, want %g", l, i, got.w[l][i], want.w[l][i])
			}
		}
		for i := range want.b[l] {
			if !sameBits(got.b[l][i], want.b[l][i]) {
				t.Fatalf("layer %d bias %d: got %g, want %g", l, i, got.b[l][i], want.b[l][i])
			}
		}
	}
}
