package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzForwardBatchEquivalence feeds arbitrary byte-driven shapes, weights and
// inputs into the batched kernels and requires row r of
// ForwardBatchInto/ProbsBatchInto to be bit-identical to a one-row call on
// the same row — the contract that makes batched and sequential rollouts
// interchangeable.
func FuzzForwardBatchEquivalence(f *testing.F) {
	f.Add([]byte{3, 4, 2, 2, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 1, 1, 0})
	f.Add([]byte{8, 8, 8, 6, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		in := int(data[0]%8) + 1
		hid := int(data[1]%8) + 1
		out := int(data[2]%8) + 1
		rows := int(data[3]%6) + 1
		seed := int64(data[4])
		pos := 5
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			v := data[pos]
			pos++
			return v
		}

		net, err := New([]int{in, hid, out}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		x := make([]float64, rows*in)
		for i := range x {
			x[i] = float64(int8(next())) / 16
		}
		masks := make([]bool, rows*out)
		for i := range masks {
			masks[i] = next()%2 == 0
		}
		for r := 0; r < rows; r++ {
			masks[r*out] = true // every row keeps at least one legal action
		}

		batch := net.NewScratch()
		single := net.NewScratch()

		gotLogits, err := net.ForwardBatchInto(batch, x, rows)
		if err != nil {
			t.Fatalf("ForwardBatchInto: %v", err)
		}
		for r := 0; r < rows; r++ {
			want, err := net.ForwardInto(single, x[r*in:(r+1)*in])
			if err != nil {
				t.Fatalf("ForwardInto row %d: %v", r, err)
			}
			for j := range want {
				got := gotLogits[r*out+j]
				if math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("logits row %d col %d: batched %v != sequential %v", r, j, got, want[j])
				}
			}
		}

		gotProbs, err := net.ProbsBatchInto(batch, x, rows, masks)
		if err != nil {
			t.Fatalf("ProbsBatchInto: %v", err)
		}
		for r := 0; r < rows; r++ {
			want, err := net.ProbsBatchInto(single, x[r*in:(r+1)*in], 1, masks[r*out:(r+1)*out])
			if err != nil {
				t.Fatalf("one-row ProbsBatchInto row %d: %v", r, err)
			}
			for j := range want {
				got := gotProbs[r*out+j]
				if math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("probs row %d col %d: batched %v != sequential %v", r, j, got, want[j])
				}
			}
		}
	})
}

// FuzzLoad feeds arbitrary bytes to Load. It must never panic, and every
// model it accepts must have positive layer sizes, survive a Save→Load→Save
// round trip byte for byte, and give finite logits on the zero input.
func FuzzLoad(f *testing.F) {
	for _, sizes := range [][]int{{1, 1}, {3, 2}, {4, 5, 3}, {2, 4, 4, 2}} {
		n, err := New(sizes, rand.New(rand.NewSource(int64(len(sizes)))))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("junk"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, size := range n.Sizes() {
			if size < 1 {
				t.Fatalf("accepted layer sizes %v", n.Sizes())
			}
		}
		var first, second bytes.Buffer
		if err := n.Save(&first); err != nil {
			t.Fatalf("Save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save→Load→Save changed the bytes")
		}
		if !slices.Equal(again.Sizes(), n.Sizes()) {
			t.Fatalf("round trip changed sizes %v to %v", n.Sizes(), again.Sizes())
		}
		logits, err := n.ForwardInto(n.NewScratch(), make([]float64, n.InputSize()))
		if err != nil {
			t.Fatalf("ForwardInto on an accepted model: %v", err)
		}
		for j, v := range logits {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("logit %d = %v on the zero input", j, v)
			}
		}
	})
}
