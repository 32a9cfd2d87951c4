package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// blobNet is the two-tensor-pair network the weight-blob tests load into: a
// corrupt LATER tensor is what catches a loader that copies as it validates.
func blobNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork(NewDense("l1", 3, 4, rng), &ReLU{}, NewDense("l2", 4, 2, rng))
}

// encodeParams gob-encodes a hand-built tensor list in MarshalWeights' wire
// form.
func encodeParams(t testing.TB, sp []savedParam) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// savedParams returns the wire form of net's weights, deep-copied so tests
// can corrupt it freely.
func savedParams(net *Network) []savedParam {
	var sp []savedParam
	for _, p := range net.Params() {
		sp = append(sp, savedParam{p.Name, p.W.Rows, p.W.Cols, append([]float64(nil), p.W.Data...)})
	}
	return sp
}

// TestUnmarshalWeightsRejectsCorruptBlob: a short, non-finite, or mis-shaped
// blob is an error, and the network's weights stay bit-identical — nothing
// is copied until every tensor has been validated.
func TestUnmarshalWeightsRejectsCorruptBlob(t *testing.T) {
	last := len(blobNet(1).Params()) - 1
	for _, tc := range []struct {
		name    string
		corrupt func(sp []savedParam) []savedParam
	}{
		{"short", func(sp []savedParam) []savedParam {
			sp[last].Data = sp[last].Data[:1]
			return sp
		}},
		{"long", func(sp []savedParam) []savedParam {
			sp[last].Data = append(sp[last].Data, 1)
			return sp
		}},
		{"nan", func(sp []savedParam) []savedParam {
			sp[last].Data[0] = math.NaN()
			return sp
		}},
		{"+inf", func(sp []savedParam) []savedParam {
			sp[last].Data[len(sp[last].Data)-1] = math.Inf(1)
			return sp
		}},
		{"-inf", func(sp []savedParam) []savedParam {
			sp[last-1].Data[0] = math.Inf(-1)
			return sp
		}},
		{"transposed", func(sp []savedParam) []savedParam {
			sp[last-1].Rows, sp[last-1].Cols = sp[last-1].Cols, sp[last-1].Rows
			return sp
		}},
		{"missing tensor", func(sp []savedParam) []savedParam { return sp[:last] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := blobNet(1)
			before := net.Snapshot()
			blob := encodeParams(t, tc.corrupt(savedParams(blobNet(2))))
			if err := net.UnmarshalWeights(blob); err == nil {
				t.Fatal("corrupt blob accepted")
			}
			for i, p := range net.Params() {
				for j, v := range p.W.Data {
					if math.Float64bits(v) != math.Float64bits(before[i][j]) {
						t.Fatalf("tensor %s[%d] changed to %g by a rejected blob", p.Name, j, v)
					}
				}
			}
		})
	}
}

// FuzzUnmarshalWeights: no input panics the loader, a rejected input leaves
// the weights bit-identical, and an accepted one installs only finite values
// that round-trip through MarshalWeights. The committed seed corpus
// (testdata/fuzz) holds MarshalWeights output of blobNet(2) and damaged
// variants of it: truncated bytes, a NaN value, a short tensor.
func FuzzUnmarshalWeights(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		net := blobNet(1)
		before := net.Snapshot()
		if err := net.UnmarshalWeights(blob); err != nil {
			for i, p := range net.Params() {
				for j, v := range p.W.Data {
					if math.Float64bits(v) != math.Float64bits(before[i][j]) {
						t.Fatalf("rejected blob (%v) changed %s[%d]", err, p.Name, j)
					}
				}
			}
			return
		}
		for _, p := range net.Params() {
			for j, v := range p.W.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted blob installed %s[%d] = %g", p.Name, j, v)
				}
			}
		}
		again, err := net.MarshalWeights()
		if err != nil {
			t.Fatal(err)
		}
		if err := blobNet(3).UnmarshalWeights(again); err != nil {
			t.Fatalf("accepted weights do not round-trip: %v", err)
		}
	})
}
