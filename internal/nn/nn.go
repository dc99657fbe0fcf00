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
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: need at least input and output, got %v", ErrBadShape, sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("%w: non-positive layer size in %v", ErrBadShape, sizes)
		}
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
	return n, nil
}

// Sizes returns a copy of the layer sizes.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }

// InputSize returns the expected input dimension.
func (n *Network) InputSize() int { return n.sizes[0] }

// OutputSize returns the number of logits.
func (n *Network) OutputSize() int { return n.sizes[len(n.sizes)-1] }

// Cache holds the per-layer activations of one forward pass, needed by
// Backward.
type Cache struct {
	// acts[0] is the input; acts[l+1] is the post-ReLU activation of layer
	// l (for the last layer: raw logits).
	acts [][]float64
}

// Logits returns the output-layer logits of the cached pass.
func (c *Cache) Logits() []float64 { return c.acts[len(c.acts)-1] }

// Forward computes logits for input x, retaining activations for Backward.
// It is ForwardInto on freshly allocated activations.
func (n *Network) Forward(x []float64) (*Cache, error) {
	if len(x) != n.sizes[0] {
		return nil, errInputSize(len(x), n.sizes[0])
	}
	cache := &Cache{acts: make([][]float64, len(n.sizes))}
	for l, size := range n.sizes {
		cache.acts[l] = make([]float64, size)
	}
	copy(cache.acts[0], x)
	n.forward(cache.acts)
	return cache, nil
}

// forward runs every layer over acts, whose acts[0] holds the input,
// writing each layer's output into acts[l+1]: ReLU on hidden layers, raw
// logits at the output.
//
//spear:noalloc
func (n *Network) forward(acts [][]float64) []float64 {
	last := len(n.weights) - 1
	for l, w := range n.weights {
		dense(w, n.biases[l], acts[l], acts[l+1], l != last)
	}
	return acts[len(acts)-1]
}

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

// Softmax converts logits to probabilities; entries where mask is false get
// probability zero. A nil mask means all actions are allowed.
func Softmax(logits []float64, mask []bool) ([]float64, error) {
	if mask != nil && len(mask) != len(logits) {
		return nil, fmt.Errorf("%w: mask size %d, logits %d", ErrBadInput, len(mask), len(logits))
	}
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

// Probs is Forward followed by masked Softmax, discarding the cache.
func (n *Network) Probs(x []float64, mask []bool) ([]float64, error) {
	cache, err := n.Forward(x)
	if err != nil {
		return nil, err
	}
	return Softmax(cache.Logits(), mask)
}

// Scratch holds reusable per-layer buffers for the allocation-free inference
// and backprop fast path (ForwardInto / ProbsInto / BackwardInto). A Scratch
// is shaped for the network that created it and must not be shared across
// goroutines; give every worker its own via NewScratch.
//
//spear:packed
type Scratch struct {
	// acts mirrors Cache.acts: acts[0] is the input copy, acts[l+1] the
	// post-ReLU activation of layer l (raw logits for the last layer).
	acts  [][]float64
	probs []float64
	// deltaA/deltaB are ping-pong backprop buffers sized to the widest layer.
	deltaA []float64
	deltaB []float64

	// Batch buffers (ForwardBatchInto / ProbsBatchInto / BackwardBatchInto),
	// grown on first use and whenever a larger batch arrives. bacts[l] holds
	// the row-major rows x sizes[l] activations of layer l; bdeltaA/bdeltaB
	// ping-pong the row-major batch deltas during backprop.
	bacts   [][]float64
	bprobs  []float64
	bdeltaA []float64
	bdeltaB []float64
	brows   int // rows the batch buffers are currently sized for
}

// NewScratch allocates a scratch buffer set shaped like the network.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{acts: make([][]float64, len(n.sizes))}
	for l, size := range n.sizes {
		s.acts[l] = make([]float64, size)
	}
	s.probs = make([]float64, n.OutputSize())
	s.deltaA = make([]float64, n.widest())
	s.deltaB = make([]float64, n.widest())
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

// Logits returns the output-layer logits of the most recent ForwardInto.
func (s *Scratch) Logits() []float64 { return s.acts[len(s.acts)-1] }

// checkScratch verifies that s was built for a network of n's shape.
//
//spear:slowpath
func (n *Network) checkScratch(s *Scratch) error {
	if s == nil || len(s.acts) != len(n.sizes) {
		return fmt.Errorf("%w: scratch does not match network", ErrBadShape)
	}
	for l, size := range n.sizes {
		if len(s.acts[l]) != size {
			return fmt.Errorf("%w: scratch layer %d has %d units, want %d", ErrBadShape, l, len(s.acts[l]), size)
		}
	}
	return nil
}

// errInputSize and errDLogitsSize build the cold-path size-mismatch errors
// outside the //spear:noalloc kernels, where fmt is forbidden.
//
//spear:slowpath
func errInputSize(got, want int) error {
	return fmt.Errorf("%w: got %d, want %d", ErrBadInput, got, want)
}

//spear:slowpath
func errDLogitsSize(got, want int) error {
	return fmt.Errorf("%w: dLogits %d, want %d", ErrBadInput, got, want)
}

// ForwardInto computes logits for input x into the scratch buffers, with
// zero heap allocations. The returned slice is owned by the scratch and
// valid until the next ForwardInto/ProbsInto call on it. The arithmetic is
// identical to Forward, so results match bit for bit.
//
//spear:noalloc
func (n *Network) ForwardInto(s *Scratch, x []float64) ([]float64, error) {
	if len(x) != n.sizes[0] {
		return nil, errInputSize(len(x), n.sizes[0])
	}
	if err := n.checkScratch(s); err != nil {
		return nil, err
	}
	copy(s.acts[0], x)
	return n.forward(s.acts), nil
}

// errMaskSize builds the cold-path mask-mismatch error outside the softmax
// kernel, where fmt is forbidden.
//
//spear:slowpath
func errMaskSize(mask, logits int) error {
	return fmt.Errorf("%w: mask size %d, logits %d", ErrBadInput, mask, logits)
}

// growProbs replaces an out buffer of the wrong length. Sized callers (the
// scratch-backed inference paths) never reach it.
//
//spear:slowpath
func growProbs(n int) []float64 { return make([]float64, n) }

// SoftmaxInto is Softmax writing into out, reused when it has the right
// length. Masked entries are set to probability zero.
func SoftmaxInto(logits []float64, mask []bool, out []float64) ([]float64, error) {
	if mask != nil && len(mask) != len(logits) {
		return nil, errMaskSize(len(mask), len(logits))
	}
	if len(out) != len(logits) {
		out = growProbs(len(logits))
	}
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
	var sum float64
	for i, v := range logits {
		if mask != nil && !mask[i] {
			out[i] = 0
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

// ProbsInto is ForwardInto followed by SoftmaxInto on the scratch's
// probability buffer: one full inference with zero heap allocations. The
// returned slice is owned by the scratch.
//
//spear:noalloc
func (n *Network) ProbsInto(s *Scratch, x []float64, mask []bool) ([]float64, error) {
	logits, err := n.ForwardInto(s, x)
	if err != nil {
		return nil, err
	}
	return SoftmaxInto(logits, mask, s.probs)
}

// BackwardInto is Backward using the activations of the scratch's most
// recent ForwardInto and the scratch's delta buffers, so one training step
// allocates nothing beyond the trajectory itself.
//
//spear:noalloc
func (n *Network) BackwardInto(s *Scratch, dLogits []float64, g *Grads) error {
	if len(dLogits) != n.OutputSize() {
		return errDLogitsSize(len(dLogits), n.OutputSize())
	}
	if err := n.checkScratch(s); err != nil {
		return err
	}
	n.backprop(s.acts, dLogits, s.deltaA, s.deltaB, g)
	return nil
}

// backprop is the one single-sample backward pass: it accumulates the
// gradients of the forward pass whose activations are acts into g,
// ping-ponging the per-layer deltas through bufA and bufB, each at least as
// long as the widest layer.
//
//spear:noalloc
func (n *Network) backprop(acts [][]float64, dLogits, bufA, bufB []float64, g *Grads) {
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

// Backward accumulates gradients for one sample given dLogits, the gradient
// of the loss with respect to the output logits (for policy-gradient /
// cross-entropy losses with softmax this is (probs - onehot) * scale).
func (n *Network) Backward(cache *Cache, dLogits []float64, g *Grads) error {
	if len(dLogits) != n.OutputSize() {
		return errDLogitsSize(len(dLogits), n.OutputSize())
	}
	widest := n.widest()
	n.backprop(cache.acts, dLogits, make([]float64, widest), make([]float64, widest), g)
	return nil
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
// start from zero.
func Load(r io.Reader) (*Network, error) {
	var st networkState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	if len(st.Sizes) < 2 || len(st.Weights) != len(st.Sizes)-1 || len(st.Biases) != len(st.Sizes)-1 {
		return nil, fmt.Errorf("%w: corrupt saved model", ErrBadShape)
	}
	n := &Network{sizes: st.Sizes, weights: st.Weights, biases: st.Biases}
	for l := 0; l < len(st.Sizes)-1; l++ {
		in, out := st.Sizes[l], st.Sizes[l+1]
		if len(st.Weights[l]) != in*out || len(st.Biases[l]) != out {
			return nil, fmt.Errorf("%w: layer %d shape mismatch", ErrBadShape, l)
		}
		n.msW = append(n.msW, make([]float64, in*out))
		n.msB = append(n.msB, make([]float64, out))
	}
	return n, nil
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
	return c
}
