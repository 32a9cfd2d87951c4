package mat

import (
	"math"
	"math/rand"
	"testing"
)

// refBiasAct applies bias and activation to a reference product, mirroring
// the unfused AddRowVector + Apply path.
func refBiasAct(m *Matrix, bias []float64, act Activation) *Matrix {
	out := m.Clone()
	if bias != nil {
		out.AddRowVector(bias)
	}
	return out.ApplyInto(out, func(v float64) float64 { return activate(v, act) })
}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := sparseMatrix(7, 5, rng)
	p := Pack(b)
	if p.Rows() != 7 || p.Cols() != 5 {
		t.Fatalf("packed shape %dx%d, want 7x5", p.Rows(), p.Cols())
	}
	// The snapshot must be a copy: later source mutations stay invisible
	// until Repack.
	b.Set(3, 2, 42)
	if p.m.At(3, 2) == 42 {
		t.Fatal("Pack aliased the source instead of copying")
	}
	// Repack must pick up source changes and reuse storage.
	prev := &p.m.Data[0]
	p.Repack(b)
	if p.m.At(3, 2) != 42 {
		t.Fatalf("Repack did not refresh: element (3,2) = %g", p.m.At(3, 2))
	}
	if &p.m.Data[0] != prev {
		t.Fatal("Repack reallocated storage for an unchanged shape")
	}
}

// TestMulPackedEquivalence checks the packed product against the naive
// reference across threshold-straddling shapes, sequentially and sharded.
func TestMulPackedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, forced := range []struct {
		name             string
		workers, minSize int
	}{
		{"sequential", 1, 0},
		{"parallel", 8, 1},
	} {
		t.Run(forced.name, func(t *testing.T) {
			defer SetParallelism(SetParallelism(forced.workers))
			if forced.minSize > 0 {
				defer SetParallelThreshold(SetParallelThreshold(forced.minSize))
			}
			for _, sh := range productShapes {
				t.Run(sh.name, func(t *testing.T) {
					a := sparseMatrix(sh.m, sh.k, rng)
					b := sparseMatrix(sh.k, sh.n, rng)
					want := refMul(a, b)
					p := Pack(b)
					expectClose(t, MulPackedInto(nil, a, p), want, "MulPackedInto")
					expectClose(t, MulPackedInto(dirtyDst(sh.m, sh.n), a, p), want, "MulPackedInto dirty dst")
				})
			}
		})
	}
}

// TestFusedEpilogueEquivalence checks the fused bias+activation product
// against the unfused AddRowVector + Apply composition for every activation.
func TestFusedEpilogueEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	acts := []struct {
		name string
		act  Activation
	}{
		{"identity", ActIdentity},
		{"relu", ActReLU},
		{"tanh", ActTanh},
		{"sigmoid", ActSigmoid},
	}
	for _, sh := range productShapes {
		a := sparseMatrix(sh.m, sh.k, rng)
		b := sparseMatrix(sh.k, sh.n, rng)
		p := Pack(b)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		ref := refMul(a, b)
		for _, tc := range acts {
			t.Run(sh.name+"/"+tc.name, func(t *testing.T) {
				want := refBiasAct(ref, bias, tc.act)
				expectClose(t, MulPackedBiasActInto(dirtyDst(sh.m, sh.n), a, p, bias, tc.act), want, "MulPackedBiasActInto")

				wantNoBias := refBiasAct(ref, nil, tc.act)
				expectClose(t, MulPackedBiasActInto(nil, a, p, nil, tc.act), wantNoBias, "MulPackedBiasActInto nil bias")
			})
		}
	}
}

func TestMulPackedShapePanics(t *testing.T) {
	a := New(2, 3)
	p := Pack(New(4, 5)) // inner mismatch: a.Cols=3 vs p.Rows=4
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"inner", func() { MulPackedInto(nil, a, p) }},
		{"dst", func() { MulPackedInto(New(9, 9), a, Pack(New(3, 5))) }},
		{"bias", func() { MulPackedBiasActInto(nil, a, Pack(New(3, 5)), make([]float64, 2), ActIdentity) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestSigmoidStable: the two-branch logistic must not overflow at extreme
// arguments (the naive 1/(1+exp(-v)) produces exp(+Inf) for very negative v).
func TestSigmoidStable(t *testing.T) {
	for _, v := range []float64{-1e4, -750, -50, -1, 0, 1, 50, 750, 1e4} {
		s := Sigmoid(v)
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("Sigmoid(%g) = %g outside [0,1]", v, s)
		}
	}
	if s := Sigmoid(-1e4); s != 0 {
		t.Fatalf("Sigmoid(-1e4) = %g, want underflow to 0", s)
	}
	if s := Sigmoid(1e4); s != 1 {
		t.Fatalf("Sigmoid(1e4) = %g, want 1", s)
	}
	// Matches the naive form where the naive form is accurate.
	for _, v := range []float64{-30, -3, -0.5, 0, 0.5, 3, 30} {
		naive := 1 / (1 + math.Exp(-v))
		if d := math.Abs(Sigmoid(v) - naive); d > 1e-15 {
			t.Fatalf("Sigmoid(%g) = %g, naive %g (diff %g)", v, Sigmoid(v), naive, d)
		}
	}
}
