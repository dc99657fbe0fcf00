package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// finiteSpecials are the specialValues that may stand in a weight of a
// layer denseSparse runs: everything but NaN and the infinities.
var finiteSpecials = func() []float64 {
	var v []float64
	for _, x := range specialValues {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			v = append(v, x)
		}
	}
	return v
}()

// noNegZero returns b with every −0 replaced by +0, the biases denseSparse
// is exact for.
func noNegZero(b []float64) []float64 {
	c := append([]float64(nil), b...)
	for i, v := range c {
		if v == 0 {
			c[i] = 0
		}
	}
	return c
}

// checkSparse checks the zero-skipping path against referenceDense bit for
// bit, counting any two NaNs as equal. It runs denseSparse on x's
// compacted nonzero inputs whatever their density, with −0 biases made +0
// (its exactness condition), and then the density- and fact-routed
// layerRow on the operands as given.
func checkSparse(t *testing.T, w, b, x []float64, out int, relu bool) {
	t.Helper()
	in := len(x)
	s := &Scratch{idx: make([]int, in), val: make([]float64, in)}
	want := make([]float64, out)
	got := make([]float64, out)
	compare := func(what string) {
		t.Helper()
		for j := range want {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s in=%d out=%d relu=%v: output %d = %v (%#x), reference %v (%#x)",
					what, in, out, relu, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}

	if allFinite(w) {
		pb := noNegZero(b)
		k := compactNonzero(x, s.idx, s.val)
		denseSparse(w, pb, in, s.idx[:k], s.val, got, relu)
		referenceDense(w, pb, x, want, relu)
		compare("denseSparse")
	}

	layerRow(w, b, x, got, relu, canSkipZeros(w, b), s)
	referenceDense(w, b, x, want, relu)
	compare("layerRow")
}

// zeroOut sets roughly frac of x to a zero of random sign.
func zeroOut(rng *rand.Rand, x []float64, frac float64) {
	for i := range x {
		if rng.Float64() < frac {
			x[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}
}

func TestDenseSparseMatchesReference(t *testing.T) {
	type shape struct{ in, out int }
	var shapes []shape
	for in := 1; in <= 9; in++ {
		for out := 1; out <= 9; out++ {
			shapes = append(shapes, shape{in, out})
		}
	}
	// The paper's 147-256-32-32-16 network.
	shapes = append(shapes, shape{147, 256}, shape{256, 32}, shape{32, 32}, shape{32, 16})

	rng := rand.New(rand.NewSource(11))
	pick := func(vals []float64, n, special int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if special > 0 && rng.Intn(special) == 0 {
				v[i] = vals[rng.Intn(len(vals))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	for _, sh := range shapes {
		for _, relu := range []bool{false, true} {
			for _, frac := range []float64{0, 0.5, 0.83, 1} {
				for _, special := range []int{0, 4, 1} {
					w := pick(finiteSpecials, sh.in*sh.out, special)
					b := pick(specialValues, sh.out, special)
					x := pick(specialValues, sh.in, special)
					zeroOut(rng, x, frac)
					checkSparse(t, w, b, x, sh.out, relu)
				}
			}
		}
	}
}

// FuzzDenseSparseMatchesReference drives the zero-skipping path with
// byte-chosen shapes (1–12 in each dimension), a byte-chosen share of zero
// inputs and byte-chosen values — small integers, fractions and every
// special value, weights restricted to the finite ones — and requires
// bit-identity with the reference loop.
func FuzzDenseSparseMatchesReference(f *testing.F) {
	f.Add([]byte{3, 5, 1, 128, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{11, 11, 0, 212, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{7, 4, 1, 255, 250, 251, 252, 253, 254, 255, 0, 0, 246})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		in := int(data[0]%12) + 1
		out := int(data[1]%12) + 1
		relu := data[2]%2 == 1
		zeroEvery := int(data[3]) // input i is zeroed when (i*37)%256 < zeroEvery
		pos := 4
		value := func(vals []float64) float64 {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			if k := int(v) - (256 - len(specialValues)); k >= 0 {
				return vals[k%len(vals)]
			}
			return float64(int8(v)) / 8
		}
		fill := func(n int, vals []float64) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = value(vals)
			}
			return v
		}
		w, b, x := fill(in*out, finiteSpecials), fill(out, specialValues), fill(in, specialValues)
		for i := range x {
			if (i*37)%256 < zeroEvery {
				x[i] = math.Copysign(0, float64(i%2*2-1))
			}
		}
		checkSparse(t, w, b, x, out, relu)
	})
}

// TestForwardFallsBackWithoutTheFact builds paper-shaped networks whose
// layers break denseSparse's exactness condition — an infinite or NaN
// weight, a −0 bias — and checks that ForwardBatchInto still matches
// referenceForward bit for bit on mostly-zero inputs, because those layers
// run dense. It also checks that Clone and a Save/Load round trip carry
// the per-layer fact.
func TestForwardFallsBackWithoutTheFact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		mutate func(n *Network)
		want   []bool
	}{
		{"intact", func(*Network) {}, []bool{true, true, true, true}},
		{"inf weight", func(n *Network) { n.weights[0][5] = math.Inf(1) }, []bool{false, true, true, true}},
		{"nan weight", func(n *Network) { n.weights[2][7] = math.NaN() }, []bool{true, true, false, true}},
		{"-0 bias", func(n *Network) { n.biases[1][3] = negZero }, []bool{true, false, true, true}},
		{"-0 biases everywhere", func(n *Network) {
			for _, b := range n.biases {
				for i := range b {
					b[i] = negZero
				}
			}
		}, []bool{false, false, false, false}},
	}
	rng := rand.New(rand.NewSource(13))
	const rows = 3
	x := make([]float64, rows*147)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	zeroOut(rng, x, 0.83)
	for _, tc := range cases {
		n, err := New([]int{147, 256, 32, 32, 16}, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(n)
		n.refreshSkipZeros()
		for l, want := range tc.want {
			if n.skipZeros[l] != want {
				t.Fatalf("%s: layer %d skipZeros = %v, want %v", tc.name, l, n.skipZeros[l], want)
			}
		}
		if c := n.Clone(); !slices.Equal(c.skipZeros, tc.want) {
			t.Fatalf("%s: Clone skipZeros = %v, want %v", tc.name, c.skipZeros, tc.want)
		}
		if allFinite(n.weights[0]) && allFinite(n.weights[2]) {
			var buf bytes.Buffer
			if err := n.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(loaded.skipZeros, tc.want) {
				t.Fatalf("%s: Load skipZeros = %v, want %v", tc.name, loaded.skipZeros, tc.want)
			}
		}

		got, err := n.ForwardBatchInto(n.NewScratch(), x, rows)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			acts := referenceForward(n, x[r*147:(r+1)*147])
			want := acts[len(acts)-1]
			for j := range want {
				if !sameBits(got[r*16+j], want[j]) {
					t.Fatalf("%s: row %d logit %d = %v, reference %v", tc.name, r, j, got[r*16+j], want[j])
				}
			}
		}
	}
}

// TestApplyRefreshesSkipZeros checks that an RMSProp step recomputes the
// per-layer fact from the updated parameters: a gradient that drives a
// weight to infinity must route the layer back to dense.
func TestApplyRefreshesSkipZeros(t *testing.T) {
	n, err := New([]int{3, 4, 2}, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	g := n.NewGrads()
	g.w[1][0] = 1
	g.n = 1
	if err := n.Apply(g, RMSProp{LR: math.MaxFloat64, Rho: 0.9, Eps: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(n.weights[1][0], 0) {
		t.Fatalf("weight = %v, want an infinity", n.weights[1][0])
	}
	if want := []bool{true, false}; !slices.Equal(n.skipZeros, want) {
		t.Fatalf("skipZeros after Apply = %v, want %v", n.skipZeros, want)
	}
}

// BenchmarkLayerKernels times one 147→256 ReLU layer, the paper network's
// widest, through dense and through compaction plus denseSparse at several
// shares of zero inputs: the measurements behind layerRow's density rule.
func BenchmarkLayerKernels(b *testing.B) {
	const in, out = 147, 256
	rng := rand.New(rand.NewSource(23))
	w, bias, x0 := randomOperands(rng, in, out, 0)
	y := make([]float64, out)
	s := &Scratch{idx: make([]int, in), val: make([]float64, in)}
	for _, zeros := range []int{0, 10, 20, 25, 50, 83} {
		x := append([]float64(nil), x0...)
		for i := range x {
			if i*100 < zeros*in {
				x[(i*61)%in] = 0
			}
		}
		b.Run("dense/zeros="+itoa(zeros), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense(w, bias, x, y, true)
			}
		})
		b.Run("sparse/zeros="+itoa(zeros), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := compactNonzero(x, s.idx, s.val)
				denseSparse(w, bias, in, s.idx[:k], s.val, y, true)
			}
		})
	}
}
