package nn

import (
	"math"
	"math/rand"
	"testing"

	"calloc/internal/mat"
)

// numericalGrad estimates dLoss/dTheta for one scalar by central differences.
func numericalGrad(theta *float64, loss func() float64) float64 {
	const h = 1e-5
	orig := *theta
	*theta = orig + h
	lp := loss()
	*theta = orig - h
	lm := loss()
	*theta = orig
	return (lp - lm) / (2 * h)
}

func checkGrad(t *testing.T, name string, analytic, numeric float64) {
	t.Helper()
	diff := math.Abs(analytic - numeric)
	scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
	if diff/scale > 1e-4 {
		t.Errorf("%s: analytic %.8f vs numeric %.8f (rel %.2e)", name, analytic, numeric, diff/scale)
	}
}

// TestDenseNetworkGradients verifies backprop through Dense→ReLU→Dense with
// softmax cross-entropy against finite differences, for every parameter and
// for the input.
func TestDenseNetworkGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewNetwork(
		NewDense("l1", 4, 6, rng),
		&ReLU{},
		NewDense("l2", 6, 3, rng),
	)
	x := mat.New(5, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 1, 2, 1, 0}

	lossFn := func() float64 {
		logits := net.Forward(x, false)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}

	// Analytic gradients.
	logits := net.Forward(x, false)
	_, g := SoftmaxCrossEntropy(logits, labels)
	net.ZeroGrads()
	dx := net.Backward(g)

	for _, p := range net.Params() {
		for _, idx := range []int{0, len(p.W.Data) / 2, len(p.W.Data) - 1} {
			analytic := p.G.Data[idx]
			numeric := numericalGrad(&p.W.Data[idx], lossFn)
			checkGrad(t, p.Name, analytic, numeric)
		}
	}
	for _, idx := range []int{0, 7, 19} {
		numeric := numericalGrad(&x.Data[idx], lossFn)
		checkGrad(t, "input", dx.Data[idx], numeric)
	}
}

// TestActivationGradients checks Tanh and Sigmoid backprop numerically.
func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct {
		name string
		act  Layer
	}{
		{"tanh", &Tanh{}},
		{"sigmoid", &Sigmoid{}},
	} {
		net := NewNetwork(NewDenseXavier("l1", 3, 4, rng), tc.act, NewDense("l2", 4, 2, rng))
		x := mat.New(2, 3)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		labels := []int{0, 1}
		lossFn := func() float64 {
			l, _ := SoftmaxCrossEntropy(net.Forward(x, false), labels)
			return l
		}
		_, g := SoftmaxCrossEntropy(net.Forward(x, false), labels)
		net.ZeroGrads()
		net.Backward(g)
		for _, p := range net.Params() {
			analytic := p.G.Data[0]
			numeric := numericalGrad(&p.W.Data[0], lossFn)
			checkGrad(t, tc.name+"/"+p.Name, analytic, numeric)
		}
	}
}

// TestMSEGradient verifies the MSE gradient numerically.
func TestMSEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pred := mat.New(3, 4)
	target := mat.New(3, 4)
	for i := range pred.Data {
		pred.Data[i] = rng.NormFloat64()
		target.Data[i] = rng.NormFloat64()
	}
	_, grad := MSE(pred, target)
	for _, idx := range []int{0, 5, 11} {
		numeric := numericalGrad(&pred.Data[idx], func() float64 {
			l, _ := MSE(pred, target)
			return l
		})
		checkGrad(t, "mse", grad.Data[idx], numeric)
	}
}

// TestCrossAttentionGradients verifies the CALLOC attention backward pass
// (projections, query input, and key input) against finite differences.
func TestCrossAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const d, dk, bsz, mem, classes = 5, 4, 3, 6, 4
	ca := NewCrossAttention("att", d, dk, rng)
	q := mat.New(bsz, d)
	k := mat.New(mem, d)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
	}
	for i := range k.Data {
		k.Data[i] = rng.NormFloat64()
	}
	memLabels := []int{0, 1, 2, 3, 0, 1}
	labels := []int{0, 1, 2}

	lossFn := func() float64 {
		out := ca.Forward(q, k, memLabels, classes)
		l, _ := SoftmaxCrossEntropy(out, labels)
		return l
	}

	out := ca.Forward(q, k, memLabels, classes)
	_, g := SoftmaxCrossEntropy(out, labels)
	for _, p := range ca.Params() {
		p.ZeroGrad()
	}
	dq, dkIn := ca.Backward(g)

	for _, p := range ca.Params() {
		for _, idx := range []int{0, len(p.W.Data) - 1} {
			numeric := numericalGrad(&p.W.Data[idx], lossFn)
			checkGrad(t, p.Name, p.G.Data[idx], numeric)
		}
	}
	for _, idx := range []int{0, 7, 14} {
		numeric := numericalGrad(&q.Data[idx], lossFn)
		checkGrad(t, "q-input", dq.Data[idx], numeric)
	}
	for _, idx := range []int{0, 13, 29} {
		numeric := numericalGrad(&k.Data[idx], lossFn)
		checkGrad(t, "k-input", dkIn.Data[idx], numeric)
	}
}

// TestMultiHeadSelfAttentionGradients verifies the ANVIL attention block's
// backward pass against finite differences.
func TestMultiHeadSelfAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const tokens, dim, heads = 3, 4, 2
	mhsa := NewMultiHeadSelfAttention("mhsa", tokens, dim, heads, rng)
	net := NewNetwork(mhsa, NewDense("head", tokens*dim, 3, rng))
	x := mat.New(2, tokens*dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 2}

	lossFn := func() float64 {
		l, _ := SoftmaxCrossEntropy(net.Forward(x, false), labels)
		return l
	}
	_, g := SoftmaxCrossEntropy(net.Forward(x, false), labels)
	net.ZeroGrads()
	dx := net.Backward(g)

	for _, p := range net.Params() {
		for _, idx := range []int{0, len(p.W.Data) / 2} {
			numeric := numericalGrad(&p.W.Data[idx], lossFn)
			checkGrad(t, p.Name, p.G.Data[idx], numeric)
		}
	}
	for _, idx := range []int{0, 5, 17} {
		numeric := numericalGrad(&x.Data[idx], lossFn)
		checkGrad(t, "mhsa-input", dx.Data[idx], numeric)
	}
}
