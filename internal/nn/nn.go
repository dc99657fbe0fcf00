// Package nn is a small, dependency-free feedforward neural network with
// ReLU hidden layers, a (maskable) softmax output, backpropagation and
// RMSProp — everything the paper's policy network needs (§IV: three hidden
// layers of 256/32/32 units, softmax output, RMSProp with lr 1e-4, ρ 0.9).
// It replaces the Theano dependency of the original implementation.
package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Network is a fully connected network: len(sizes)-1 layers, ReLU between
// hidden layers, raw logits at the output (softmax applied separately so
// that masking is possible). It is safe for concurrent Forward/Probs calls
// as long as no Apply* call runs concurrently.
type Network struct {
	sizes   []int
	weights [][]float64 // weights[l][j*in+i]: layer l, output j, input i
	biases  [][]float64

	// RMSProp accumulators.
	msW [][]float64
	msB [][]float64

	// skipZeros[l] records that layer l may skip its zero inputs without
	// changing a bit: every weight is finite and no bias is −0 (see
	// denseSparse). New, Load, Apply and Clone recompute it.
	skipZeros []bool
}

// Errors returned by the package.
var (
	ErrBadShape  = errors.New("nn: invalid network shape")
	ErrBadInput  = errors.New("nn: input size mismatch")
	ErrAllMasked = errors.New("nn: every action is masked")
)

// New builds a network with the given layer sizes (input first, output
// last) and He-initialized weights.
func New(sizes []int, rng *rand.Rand) (*Network, error) {
	if err := checkSizes(sizes); err != nil {
		return nil, err
	}
	n := &Network{sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		std := math.Sqrt(2.0 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * std
		}
		n.weights = append(n.weights, w)
		n.biases = append(n.biases, make([]float64, out))
		n.msW = append(n.msW, make([]float64, in*out))
		n.msB = append(n.msB, make([]float64, out))
	}
	n.refreshSkipZeros()
	return n, nil
}

// checkSizes rejects fewer than two layers and any non-positive layer size.
func checkSizes(sizes []int) error {
	if len(sizes) < 2 {
		return fmt.Errorf("%w: need at least input and output, got %v", ErrBadShape, sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			return fmt.Errorf("%w: non-positive layer size in %v", ErrBadShape, sizes)
		}
	}
	return nil
}

// Sizes returns a copy of the layer sizes.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// InputSize returns the expected input dimension.
func (n *Network) InputSize() int { return n.sizes[0] }

// OutputSize returns the number of logits.
func (n *Network) OutputSize() int { return n.sizes[len(n.sizes)-1] }

// dense is the one dense-layer kernel: next[j] = b[j] + Σ_i w[j*len(x)+i]·x[i]
// for every output j, clamped at zero when relu is set. It is register
// tiled — four output neurons share each pass over x, with four
// independent accumulators — but every sum still starts at b[j] and adds
// its products in ascending i, so the result is bit-identical to the plain
// one-neuron-at-a-time loop; only the interleaving of independent sums
// changes. Re-slicing each weight row to len(x) lets the compiler drop the
// bounds checks from the inner loop.
//
//spear:noalloc
func dense(w, b, x, next []float64, relu bool) {
	in := len(x)
	for len(next) >= 4 {
		r0 := w[:in]
		r1 := w[in:][:in]
		r2 := w[2*in:][:in]
		r3 := w[3*in:][:in]
		s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
		// dense:tile begin
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		// dense:tile end
		if relu {
			s0, s1, s2, s3 = reluClamp(s0), reluClamp(s1), reluClamp(s2), reluClamp(s3)
		}
		next[0], next[1], next[2], next[3] = s0, s1, s2, s3
		w, b, next = w[4*in:], b[4:], next[4:]
	}
	for j := range next {
		row := w[j*in:][:in]
		sum := b[j]
		for i, xi := range x {
			sum += row[i] * xi
		}
		if relu {
			sum = reluClamp(sum)
		}
		next[j] = sum
	}
}

// denseSparse is dense over the nonzero inputs only: idx lists in
// ascending order the positions (each below in, the layer's input width)
// of every input that is not ±0, and val[k] is the input at idx[k]. It keeps
// dense's four-output tile, bias start, ascending-i order and ReLU, and is
// bit-identical to dense on the full input when every weight is finite and
// no bias is −0. Each skipped term is then w·(±0) = ±0, and adding ±0 to a
// sum changes it only when the sum is −0. In round-to-nearest an addition
// returns −0 only when both operands are −0, so a sum that starts at a
// bias other than −0 never becomes −0. For the same reason the ReLU can be
// max(s, 0), which equals reluClamp on every sum but −0 and compiles
// without a branch.
//
//spear:noalloc
func denseSparse(w, b []float64, in int, idx []int, val, next []float64, relu bool) {
	val = val[:len(idx)]
	for len(next) >= 4 {
		r0 := w[:in]
		r1 := w[in:][:in]
		r2 := w[2*in:][:in]
		r3 := w[3*in:][:in]
		s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
		// sparse:tile begin
		for k, i := range idx {
			xi := val[k]
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		// sparse:tile end
		if relu {
			s0, s1, s2, s3 = max(s0, 0), max(s1, 0), max(s2, 0), max(s3, 0)
		}
		next[0], next[1], next[2], next[3] = s0, s1, s2, s3
		w, b, next = w[4*in:], b[4:], next[4:]
	}
	for j := range next {
		row := w[j*in:][:in]
		sum := b[j]
		for k, i := range idx {
			sum += row[i] * val[k]
		}
		if relu {
			sum = max(sum, 0)
		}
		next[j] = sum
	}
}

// canSkipZeros reports whether a layer with weights w and biases b meets
// denseSparse's exactness condition: every weight finite, no bias −0.
func canSkipZeros(w, b []float64) bool {
	if !allFinite(w) {
		return false
	}
	for _, v := range b {
		if math.Float64bits(v) == 1<<63 { // −0: the sign bit alone
			return false
		}
	}
	return true
}

// refreshSkipZeros recomputes skipZeros from the current parameters; every
// function that creates or changes parameters calls it.
func (n *Network) refreshSkipZeros() {
	n.skipZeros = n.skipZeros[:0]
	for l, w := range n.weights {
		n.skipZeros = append(n.skipZeros, canSkipZeros(w, n.biases[l]))
	}
}

// reluClamp zeroes negative sums and passes everything else (−0 and NaN
// included) through unchanged.
//
//spear:noalloc
func reluClamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Scratch holds the reusable per-layer buffers of the allocation-free
// inference and backprop path (ForwardBatchInto / ProbsBatchInto /
// BackwardBatchInto). A single decision is simply a batch of one row. A
// Scratch is shaped for the network that created it and must not be shared
// across goroutines; give every worker its own via NewScratch.
//
//spear:packed
type Scratch struct {
	// acts[l] holds the row-major rows x sizes[l] activations of layer l:
	// acts[0] is the input copy, acts[l+1] the post-ReLU activation of
	// layer l (raw logits for the last layer). deltaA/deltaB ping-pong the
	// row-major deltas during backprop.
	acts   [][]float64
	probs  []float64
	deltaA []float64
	deltaB []float64
	// idx/val hold one row's nonzero inputs for denseSparse, compacted
	// just before each layer runs; each is as long as the widest layer.
	idx  []int
	val  []float64
	rows int // rows the buffers are currently sized for
}

// NewScratch allocates a scratch buffer set shaped like the network and
// sized for one row; the batch calls grow it on demand.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{}
	n.ensureBatch(s, 1)
	return s
}

// widest returns the largest layer size, the length of a backprop delta
// buffer.
func (n *Network) widest() int {
	w := 0
	for _, size := range n.sizes {
		w = max(w, size)
	}
	return w
}

// checkScratch verifies that s was built for a network of n's shape.
//
//spear:slowpath
func (n *Network) checkScratch(s *Scratch) error {
	if s == nil || len(s.acts) != len(n.sizes) {
		return fmt.Errorf("%w: scratch does not match network", ErrBadShape)
	}
	for l, size := range n.sizes {
		if len(s.acts[l]) != s.rows*size {
			return fmt.Errorf("%w: scratch layer %d has %d values, want %d rows x %d", ErrBadShape, l, len(s.acts[l]), s.rows, size)
		}
	}
	return nil
}

// Grads accumulates parameter gradients across a mini-batch.
type Grads struct {
	w [][]float64
	b [][]float64
	n int // samples accumulated
}

// NewGrads returns a zeroed gradient accumulator shaped like the network.
func (n *Network) NewGrads() *Grads {
	g := &Grads{}
	for l := range n.weights {
		g.w = append(g.w, make([]float64, len(n.weights[l])))
		g.b = append(g.b, make([]float64, len(n.biases[l])))
	}
	return g
}

// Add merges other into g (for parallel workers).
func (g *Grads) Add(other *Grads) {
	for l := range g.w {
		for i, v := range other.w[l] {
			g.w[l][i] += v
		}
		for i, v := range other.b[l] {
			g.b[l][i] += v
		}
	}
	g.n += other.n
}

// Samples returns how many samples were accumulated.
func (g *Grads) Samples() int { return g.n }

// AddSamples counts k additional samples that contributed zero gradient
// (for example zero-advantage REINFORCE steps whose backward pass is
// skipped). They still belong to the batch, so Apply's 1/n scaling must
// average over them; omitting them silently inflates the effective
// learning rate.
func (g *Grads) AddSamples(k int) { g.n += k }

// Norm returns the L2 norm of the mean gradient — the same 1/n-scaled
// gradient Apply feeds to the optimizer. Zero for an empty batch.
func (g *Grads) Norm() float64 {
	if g.n == 0 {
		return 0
	}
	var sum float64
	for l := range g.w {
		for _, v := range g.w[l] {
			sum += v * v
		}
		for _, v := range g.b[l] {
			sum += v * v
		}
	}
	return math.Sqrt(sum) / float64(g.n)
}

// RMSProp hyperparameters (§IV).
type RMSProp struct {
	LR  float64 // learning rate α; paper: 1e-4
	Rho float64 // decay ρ; paper: 0.9
	Eps float64 // ε; paper: 1e-9
}

// DefaultRMSProp returns the paper's optimizer settings.
func DefaultRMSProp() RMSProp { return RMSProp{LR: 1e-4, Rho: 0.9, Eps: 1e-9} }

// Apply performs one RMSProp update with the mean gradient of the batch.
// Accumulators persist inside the network.
func (n *Network) Apply(g *Grads, opt RMSProp) error {
	if g.n == 0 {
		return errors.New("nn: empty gradient batch")
	}
	scale := 1.0 / float64(g.n)
	for l := range n.weights {
		for i, raw := range g.w[l] {
			grad := raw * scale
			n.msW[l][i] = opt.Rho*n.msW[l][i] + (1-opt.Rho)*grad*grad
			n.weights[l][i] -= opt.LR * grad / (math.Sqrt(n.msW[l][i]) + opt.Eps)
		}
		for i, raw := range g.b[l] {
			grad := raw * scale
			n.msB[l][i] = opt.Rho*n.msB[l][i] + (1-opt.Rho)*grad*grad
			n.biases[l][i] -= opt.LR * grad / (math.Sqrt(n.msB[l][i]) + opt.Eps)
		}
	}
	n.refreshSkipZeros()
	return nil
}

// networkState is the gob wire format.
type networkState struct {
	Sizes   []int
	Weights [][]float64
	Biases  [][]float64
}

// Save serializes the network weights (not the optimizer state).
func (n *Network) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(networkState{
		Sizes:   n.sizes,
		Weights: n.weights,
		Biases:  n.biases,
	})
}

// Load reads a network previously written by Save. Optimizer accumulators
// start from zero. It rejects a model whose layer sizes are not positive or
// do not match its parameter counts, that holds a NaN or infinite
// parameter, or whose logits on the zero input are not finite.
func Load(r io.Reader) (*Network, error) {
	var st networkState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	if err := checkSizes(st.Sizes); err != nil {
		return nil, err
	}
	if len(st.Weights) != len(st.Sizes)-1 || len(st.Biases) != len(st.Sizes)-1 {
		return nil, fmt.Errorf("%w: corrupt saved model", ErrBadShape)
	}
	n := &Network{sizes: st.Sizes, weights: st.Weights, biases: st.Biases}
	for l := 0; l < len(st.Sizes)-1; l++ {
		in, out := st.Sizes[l], st.Sizes[l+1]
		// Dividing rather than multiplying keeps huge sizes from
		// overflowing in*out into a match.
		w := st.Weights[l]
		if len(w)%out != 0 || len(w)/out != in || len(st.Biases[l]) != out {
			return nil, fmt.Errorf("%w: layer %d shape mismatch", ErrBadShape, l)
		}
		if !allFinite(w) || !allFinite(st.Biases[l]) {
			return nil, fmt.Errorf("nn: corrupt saved model: layer %d has a non-finite parameter", l)
		}
		n.msW = append(n.msW, make([]float64, in*out))
		n.msB = append(n.msB, make([]float64, out))
	}
	n.refreshSkipZeros()
	logits, err := n.ForwardInto(n.NewScratch(), make([]float64, n.InputSize()))
	if err != nil {
		return nil, err
	}
	if !allFinite(logits) {
		return nil, errors.New("nn: corrupt saved model: non-finite logits on the zero input")
	}
	return n, nil
}

// allFinite reports whether every value is neither NaN nor infinite.
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the network, including optimizer state.
func (n *Network) Clone() *Network {
	c := &Network{sizes: append([]int(nil), n.sizes...)}
	cp := func(src [][]float64) [][]float64 {
		out := make([][]float64, len(src))
		for i, s := range src {
			out[i] = append([]float64(nil), s...)
		}
		return out
	}
	c.weights = cp(n.weights)
	c.biases = cp(n.biases)
	c.msW = cp(n.msW)
	c.msB = cp(n.msB)
	c.refreshSkipZeros()
	return c
}
