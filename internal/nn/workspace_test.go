package nn

import (
	"math"
	"math/rand"
	"testing"

	"calloc/internal/mat"
)

func closeEnough(t *testing.T, got, want *mat.Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		scale := math.Abs(v)
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got.Data[i]-v) > 1e-12*scale {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got.Data[i], v)
		}
	}
}

// inferIntoStacks covers fused Dense+activation pairs, a bare Dense, a
// leading standalone activation, and the identity eval-time layers.
func inferIntoStacks(rng *rand.Rand) map[string]*Network {
	return map[string]*Network{
		"dense_relu":    NewNetwork(NewDense("a", 9, 7, rng), &ReLU{}),
		"dense_tanh":    NewNetwork(NewDenseXavier("b", 9, 7, rng), &Tanh{}),
		"dense_sigmoid": NewNetwork(NewDenseXavier("c", 9, 7, rng), &Sigmoid{}),
		"dense_only":    NewNetwork(NewDense("d", 9, 7, rng)),
		"leading_act":   NewNetwork(&Tanh{}, NewDense("e", 9, 7, rng), &ReLU{}),
		"deep": NewNetwork(
			NewDense("f1", 9, 16, rng), &ReLU{},
			NewDropout(0.5, rng), NewGaussianNoise(0.3, rng),
			NewDense("f2", 16, 7, rng), &Sigmoid{},
		),
	}
}

// TestInferIntoMatchesInfer: the workspace path must agree with the
// allocation-per-call Infer path on every stack shape, across repeated calls
// (buffer reuse) and varying batch sizes (buffer regrowth).
func TestInferIntoMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, net := range inferIntoStacks(rng) {
		t.Run(name, func(t *testing.T) {
			ws := NewWorkspace()
			for _, rows := range []int{1, 4, 1, 17, 3} {
				x := randMat(rng, rows, 9)
				want := net.Infer(x)
				ws.Reset()
				closeEnough(t, net.InferInto(ws, x), want, name)
			}
		})
	}
}

// TestInferIntoDoesNotMutateInput: a leading activation layer must write to
// a workspace buffer, never in place over the caller's matrix.
func TestInferIntoDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(&ReLU{})
	x := randMat(rng, 3, 5)
	orig := x.Clone()
	net.InferInto(NewWorkspace(), x)
	for i, v := range orig.Data {
		if x.Data[i] != v {
			t.Fatalf("InferInto mutated input at %d: %g -> %g", i, v, x.Data[i])
		}
	}
}

// TestInferIntoZeroAllocSteadyState: after the first pass warms the buffers
// and packed views, the workspace path must not allocate.
func TestInferIntoZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(
		NewDense("z1", 12, 24, rng), &ReLU{},
		NewDense("z2", 24, 6, rng), &Sigmoid{},
	)
	ws := NewWorkspace()
	x := randMat(rng, 2, 12)
	if allocs := testing.AllocsPerRun(50, func() {
		ws.Reset()
		net.InferInto(ws, x)
	}); allocs != 0 {
		t.Fatalf("steady-state InferInto allocates %.0f objects/op, want 0", allocs)
	}
}

// TestPackedViewInvalidation: weight updates through every supported
// mutation path must be visible to the next packed inference.
func TestPackedViewInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randMat(rng, 3, 5)

	check := func(name string, net *Network, mutate func(*Network)) {
		t.Helper()
		ws := NewWorkspace()
		net.InferInto(ws, x) // cache the packed views
		mutate(net)
		want := net.Infer(x)
		ws.Reset()
		closeEnough(t, net.InferInto(ws, x), want, name)
	}

	check("optimizer", NewNetwork(NewDense("o", 5, 4, rng), &ReLU{}), func(net *Network) {
		for _, p := range net.Params() {
			for i := range p.G.Data {
				p.G.Data[i] = rng.NormFloat64()
			}
		}
		NewSGD(0.1, 0).Step(net.Params())
	})

	check("restore", NewNetwork(NewDense("r", 5, 4, rng), &ReLU{}), func(net *Network) {
		snap := net.Snapshot()
		for i := range snap {
			for j := range snap[i] {
				snap[i][j] = rng.NormFloat64()
			}
		}
		net.Restore(snap)
	})

	check("unmarshal", NewNetwork(NewDense("u", 5, 4, rng), &ReLU{}), func(net *Network) {
		donor := NewNetwork(NewDense("u", 5, 4, rand.New(rand.NewSource(99))), &ReLU{})
		blob, err := donor.MarshalWeights()
		if err != nil {
			t.Fatal(err)
		}
		if err := net.UnmarshalWeights(blob); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInferPackedTIntoReusesWorkspace: repeated serving attention passes on
// one workspace reproduce the first pass exactly, and the steady state
// allocates nothing at any precision.
func TestInferPackedTIntoReusesWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ca := NewCrossAttention("att", 6, 4, rng)
	q := randMat(rng, 5, 6)
	k := randMat(rng, 11, 6)
	labels := []int{0, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1}

	kpT := ca.ProjectKeys(k).Transpose()
	for _, prec := range []mat.Precision{mat.PrecFloat64, mat.PrecFloat32, mat.PrecInt8} {
		ws := NewWorkspace()
		ws.SetPrecision(prec)
		kpTP := mat.PackPrec(kpT, prec)
		first := ca.InferPackedTInto(ws, q, kpTP, labels, 3).Clone()
		for i := 0; i < 3; i++ { // repeated calls exercise buffer reuse
			ws.Reset()
			closeEnough(t, ca.InferPackedTInto(ws, q, kpTP, labels, 3), first, prec.String()+" reuse")
		}
		if raceEnabled && prec != mat.PrecFloat64 {
			continue // pooled quantization scratch; see race_on_test.go
		}
		if allocs := testing.AllocsPerRun(50, func() {
			ws.Reset()
			ca.InferPackedTInto(ws, q, kpTP, labels, 3)
		}); allocs != 0 {
			t.Fatalf("%s: steady-state InferPackedTInto allocates %.0f objects/op, want 0", prec, allocs)
		}
	}
}
