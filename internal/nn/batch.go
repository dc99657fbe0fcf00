// Batched inference and backprop: the one kernel family every network
// caller runs, over row-major batches in the scratch's buffers. A single
// decision is a batch of one row. Inference runs each layer once per row,
// so row r of a batch is bit-identical to a one-row call on that row. A
// row whose inputs are mostly exact zeros, in a layer whose weights are
// finite and whose biases are not −0, runs denseSparse over its compacted
// nonzero inputs; every other row runs dense. Both are bit-identical to
// the plain loop (see denseSparse for why skipping zeros is exact).
// Backprop streams each weight row once per batch and accumulates rows in
// ascending order, matching one-row calls in row order bit for bit.
package nn

import (
	"fmt"
	"math"
)

// ensureBatch grows the scratch's buffers to hold at least rows rows.
// Growth allocates; once sized, batch calls are allocation-free.
//
//spear:slowpath
func (n *Network) ensureBatch(s *Scratch, rows int) {
	if s.rows >= rows {
		return
	}
	if s.acts == nil {
		s.acts = make([][]float64, len(n.sizes))
	}
	for l, size := range n.sizes {
		s.acts[l] = make([]float64, rows*size)
	}
	s.probs = make([]float64, rows*n.OutputSize())
	s.deltaA = make([]float64, rows*n.widest())
	s.deltaB = make([]float64, rows*n.widest())
	if s.idx == nil {
		s.idx = make([]int, n.widest())
		s.val = make([]float64, n.widest())
	}
	s.rows = rows
}

// Cold-path error constructors for the //spear:noalloc batch kernels, where
// fmt is forbidden.
//
//spear:slowpath
func errBatchSize(rows int) error {
	return fmt.Errorf("%w: batch of %d rows", ErrBadInput, rows)
}

//spear:slowpath
func errBatchValues(got, rows, in int) error {
	return fmt.Errorf("%w: got %d values, want %d rows x %d", ErrBadInput, got, rows, in)
}

//spear:slowpath
func errBatchMasks(got, rows, out int) error {
	return fmt.Errorf("%w: masks %d, want %d rows x %d", ErrBadInput, got, rows, out)
}

//spear:slowpath
func errBatchRow(r int, err error) error {
	return fmt.Errorf("row %d: %w", r, err)
}

//spear:slowpath
func errBatchDLogits(got, rows, out int) error {
	return fmt.Errorf("%w: dLogits %d, want %d rows x %d", ErrBadInput, got, rows, out)
}

//spear:slowpath
func errBatchCold(have, want int) error {
	return fmt.Errorf("%w: batch scratch holds %d rows, want %d (run ForwardBatchInto first)", ErrBadInput, have, want)
}

// ForwardBatchInto computes logits for a row-major batch x (rows vectors of
// InputSize each) into the scratch's batch buffers, returning the row-major
// rows x OutputSize logits. The returned slice is owned by the scratch and
// valid until its next batch call. Row r's result is bit-identical to a
// one-row call on x[r*in:(r+1)*in]. Buffer growth happens in ensureBatch;
// once the scratch is warm this kernel never touches the heap.
//
//spear:noalloc
func (n *Network) ForwardBatchInto(s *Scratch, x []float64, rows int) ([]float64, error) {
	if rows < 1 {
		return nil, errBatchSize(rows)
	}
	in0 := n.sizes[0]
	if len(x) != rows*in0 {
		return nil, errBatchValues(len(x), rows, in0)
	}
	if err := n.checkScratch(s); err != nil {
		return nil, err
	}
	n.ensureBatch(s, rows)
	copy(s.acts[0][:rows*in0], x)
	last := len(n.weights) - 1
	for l, w := range n.weights {
		in, out := n.sizes[l], n.sizes[l+1]
		a, c := s.acts[l], s.acts[l+1]
		for r := 0; r < rows; r++ {
			layerRow(w, n.biases[l], a[r*in:r*in+in], c[r*out:r*out+out], l != last, n.skipZeros[l], s)
		}
	}
	return s.acts[len(n.sizes)-1][:rows*n.OutputSize()], nil
}

// layerRow computes one row of a dense layer, y = relu?(b + W·x). When
// skip records that the layer meets denseSparse's exactness condition and
// at most three quarters of x is nonzero, it runs denseSparse over x's
// nonzero inputs, compacted into the scratch; otherwise it runs dense.
//
// The three-quarter bound sits at the low end of where the two kernels
// break even on the paper's 147→256 layer (BenchmarkLayerKernels, 2-vCPU
// Xeon): denseSparse does dense's four multiply-adds per nonzero input but
// gathers its weights through an index and needs the compaction pass, so
// with every input nonzero it takes 21 µs where dense takes 16–18 µs, and
// it first wins at 75–85% nonzero. Above the bound dense is as fast or
// faster; paper states sit far below it (about 18% of the inputs and half
// of each hidden layer are nonzero).
//
//spear:noalloc
func layerRow(w, b, x, y []float64, relu, skip bool, s *Scratch) {
	if skip {
		if k := compactNonzero(x, s.idx, s.val); 4*k <= 3*len(x) {
			denseSparse(w, b, len(x), s.idx[:k], s.val, y, relu)
			return
		}
	}
	dense(w, b, x, y, relu)
}

// compactNonzero writes the positions of x's nonzero entries (in ascending
// order) to idx and their values to val, both at least len(x) long, and
// returns how many there are. It is branch-free: every entry is written
// at position k, and k advances only past the nonzero ones (those whose
// bits, shifted past the sign, are not all zero).
//
//spear:noalloc
func compactNonzero(x []float64, idx []int, val []float64) int {
	k := 0
	for i, v := range x {
		idx[k], val[k] = i, v
		u := math.Float64bits(v) << 1
		k += int((u | -u) >> 63)
	}
	return k
}

// ForwardInto computes the logits of one input vector: it is
// ForwardBatchInto(s, x, 1), the single-decision case of the batch kernel.
// The returned slice is owned by the scratch and valid until its next call.
//
//spear:noalloc
func (n *Network) ForwardInto(s *Scratch, x []float64) ([]float64, error) {
	return n.ForwardBatchInto(s, x, 1)
}

// ProbsBatchInto is ForwardBatchInto followed by a masked softmax per row.
// masks is row-major rows x OutputSize (nil allows every action in every
// row). The returned row-major probabilities are owned by the scratch.
//
//spear:noalloc
func (n *Network) ProbsBatchInto(s *Scratch, x []float64, rows int, masks []bool) ([]float64, error) {
	out := n.OutputSize()
	if masks != nil && len(masks) != rows*out {
		return nil, errBatchMasks(len(masks), rows, out)
	}
	logits, err := n.ForwardBatchInto(s, x, rows)
	if err != nil {
		return nil, err
	}
	probs := s.probs[:rows*out]
	for r := 0; r < rows; r++ {
		var mask []bool
		if masks != nil {
			mask = masks[r*out : (r+1)*out]
		}
		if err := softmaxInto(logits[r*out:(r+1)*out], mask, probs[r*out:(r+1)*out]); err != nil {
			return nil, errBatchRow(r, err)
		}
	}
	return probs, nil
}

// softmaxInto writes the masked softmax of logits into out, which must have
// the logits' length, as must a non-nil mask. Masked entries get
// probability zero.
//
//spear:noalloc
func softmaxInto(logits []float64, mask []bool, out []float64) error {
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
		return ErrAllMasked
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
	return nil
}

// BackwardBatchInto accumulates gradients for a whole batch given the
// row-major dLogits (rows x OutputSize) and the activations of the scratch's
// most recent ForwardBatchInto, which must have covered at least rows rows.
// Contributions are accumulated in row order, so the result is bit-identical
// to rows one-row calls in sequence, while each weight row is streamed once
// per batch instead of once per sample.
//
//spear:noalloc
func (n *Network) BackwardBatchInto(s *Scratch, dLogits []float64, rows int, g *Grads) error {
	out0 := n.OutputSize()
	if rows < 1 || len(dLogits) != rows*out0 {
		return errBatchDLogits(len(dLogits), rows, out0)
	}
	if err := n.checkScratch(s); err != nil {
		return err
	}
	if s.rows < rows {
		return errBatchCold(s.rows, rows)
	}
	delta := s.deltaA[:rows*out0]
	spare := s.deltaB
	copy(delta, dLogits)
	for l := len(n.weights) - 1; l >= 0; l-- {
		in, out := n.sizes[l], n.sizes[l+1]
		prev := s.acts[l]
		// Parameter gradients: for a fixed (j, i) the rows accumulate in
		// ascending order, matching sequential per-sample backprop.
		for j := 0; j < out; j++ {
			grow := g.w[l][j*in : (j+1)*in]
			for r := 0; r < rows; r++ {
				dj := delta[r*out+j]
				// Exact zero: skipping it cannot change the accumulated sums.
				if dj == 0 { //spear:floateq
					continue
				}
				g.b[l][j] += dj
				ar := prev[r*in : r*in+in]
				for i, pi := range ar {
					grow[i] += dj * pi
				}
			}
		}
		if l == 0 {
			break
		}
		// Propagate the batch delta through W and the ReLU. For a fixed
		// (r, i) the j contributions accumulate in ascending order.
		next := spare[:rows*in]
		for i := range next {
			next[i] = 0
		}
		w := n.weights[l]
		for j := 0; j < out; j++ {
			row := w[j*in : (j+1)*in]
			for r := 0; r < rows; r++ {
				dj := delta[r*out+j]
				// Exact zero: a zero delta propagates nothing backwards.
				if dj == 0 { //spear:floateq
					continue
				}
				nr := next[r*in : r*in+in]
				for i := range nr {
					nr[i] += dj * row[i]
				}
			}
		}
		for r := 0; r < rows; r++ {
			ar := prev[r*in : r*in+in]
			nr := next[r*in : r*in+in]
			for i := range nr {
				if ar[i] <= 0 { // ReLU derivative
					nr[i] = 0
				}
			}
		}
		delta, spare = next, delta[:cap(delta)]
	}
	g.n += rows
	return nil
}
