package nn

import (
	"math"
	"math/rand"
	"testing"
)

// referenceDense is the plain one-neuron-at-a-time dense layer the tiled
// kernel replaced: the oracle dense must match bit for bit.
func referenceDense(w, b, x, next []float64, relu bool) {
	in := len(x)
	for j := range next {
		sum := b[j]
		row := w[j*in : (j+1)*in]
		for i, xi := range x {
			sum += row[i] * xi
		}
		if relu && sum < 0 {
			sum = 0
		}
		next[j] = sum
	}
}

// specialValues are the IEEE-754 edge cases every kernel input draws from:
// signed zeros, infinities, NaN and subnormals.
var specialValues = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1030, -0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64,
}

// sameBits reports whether a and b have identical bits, counting any two
// NaNs as equal: when two NaNs meet in an addition or multiplication, which
// payload survives depends on the operand order the compiler picked for the
// (commutative) machine instruction, not on the arithmetic.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDense runs dense and the reference on the same operands and fails
// on the first output whose bits differ.
func checkDense(t *testing.T, w, b, x []float64, out int, relu bool) {
	t.Helper()
	got := make([]float64, out)
	want := make([]float64, out)
	dense(w, b, x, got, relu)
	referenceDense(w, b, x, want, relu)
	for j := range want {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("in=%d out=%d relu=%v: output %d = %v (%#x), reference %v (%#x)",
				len(x), out, relu, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// randomOperands draws weights, biases and inputs for an in→out layer: mostly
// normal values, with roughly one in special drawn from specialValues.
func randomOperands(rng *rand.Rand, in, out, special int) (w, b, x []float64) {
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if special > 0 && rng.Intn(special) == 0 {
				v[i] = specialValues[rng.Intn(len(specialValues))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	return draw(in * out), draw(out), draw(in)
}

func TestDenseMatchesReference(t *testing.T) {
	type shape struct{ in, out int }
	var shapes []shape
	for in := 1; in <= 9; in++ {
		for out := 1; out <= 9; out++ {
			shapes = append(shapes, shape{in, out})
		}
	}
	// The paper's 256/32/32 network over a 145- and a 147-wide state
	// (DefaultFeatures) with a 16-way output.
	shapes = append(shapes, shape{145, 256}, shape{147, 256}, shape{256, 32}, shape{32, 32}, shape{32, 16})

	rng := rand.New(rand.NewSource(7))
	for _, sh := range shapes {
		for _, relu := range []bool{false, true} {
			// Plain normals exercise the ReLU clamp on both signs; the
			// special-heavy draws push ±0, ±Inf, NaN and subnormals through
			// every accumulator lane and the scalar tail.
			for _, special := range []int{0, 4, 1} {
				w, b, x := randomOperands(rng, sh.in, sh.out, special)
				checkDense(t, w, b, x, sh.out, relu)
			}
		}
	}
}

// FuzzDenseMatchesReference drives dense with byte-chosen shapes (1–12 in
// each dimension) and byte-chosen values — small integers, fractions and
// every special value — and requires bit-identity with the reference loop.
func FuzzDenseMatchesReference(f *testing.F) {
	f.Add([]byte{3, 5, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{11, 11, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{0, 7, 1, 250, 251, 252, 253, 254, 255})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		in := int(data[0]%12) + 1
		out := int(data[1]%12) + 1
		relu := data[2]%2 == 1
		pos := 3
		value := func() float64 {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			if k := int(v) - (256 - len(specialValues)); k >= 0 {
				return specialValues[k]
			}
			return float64(int8(v)) / 8
		}
		fill := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = value()
			}
			return v
		}
		w, b, x := fill(in*out), fill(out), fill(in)
		checkDense(t, w, b, x, out, relu)
	})
}
