// Package nn is a from-scratch neural-network training framework built for
// this reproduction: dense layers, the activation/noise layers the CALLOC
// paper uses, scaled dot-product and multi-head attention with full reverse-
// mode gradients, softmax cross-entropy and MSE losses, and SGD/Adam
// optimizers. Go's standard library has no deep-learning stack, so the paper's
// entire training pipeline — including the input gradients needed by the
// FGSM/PGD/MIM attacks — is implemented here on top of internal/mat.
package nn

import (
	"math"
	"math/rand"
	"sync/atomic"

	"calloc/internal/mat"
)

// Param is one trainable tensor: its value W and accumulated gradient G.
// Layers expose their Params so optimizers can update them in place.
//
// Param also maintains lazily-packed snapshot views of W (mat.Packed) for
// the hot inference GEMMs — one cached slot per mat.Precision, so a float64
// training path and a reduced-precision serving path can share the Param
// without evicting each other's snapshot. The views are invalidated by a
// version counter: every in-place mutation of W must call NoteUpdate, and
// Packed/PackedPrec repack on first use after a bump. The optimizers,
// initialisers, Restore, and weight deserialisation all do this; code that
// writes W.Data directly must too.
type Param struct {
	Name string
	W    *mat.Matrix
	G    *mat.Matrix

	version atomic.Uint64
	packed  [mat.NumPrecisions]atomic.Pointer[packedView]
}

// packedView snapshots a packed copy of W together with the weight version
// it was packed at.
type packedView struct {
	version uint64
	p       *mat.Packed
}

// NoteUpdate marks the parameter's weights as changed, invalidating any
// packed view. Safe to call concurrently, but must not race with readers of
// W.Data (serving layers never mutate a served model; they build a new one
// and swap it in through localizer.Registry.Swap).
func (p *Param) NoteUpdate() { p.version.Add(1) }

// Packed returns the full-precision (float64) packed snapshot view of W,
// repacking at most once per NoteUpdate. Concurrent callers may briefly pack
// twice; both results are equivalent and one wins the cache. The returned
// view must be treated as read-only and goes stale at the next weight update.
func (p *Param) Packed() *mat.Packed { return p.PackedPrec(mat.PrecFloat64) }

// PackedPrec is Packed at an explicit snapshot precision: reduced-precision
// views are quantized from the float64 weights at pack time and cached per
// precision under the same version counter, so serving at float32/int8 costs
// one quantization per weight update, not per query.
func (p *Param) PackedPrec(prec mat.Precision) *mat.Packed {
	v := p.version.Load()
	slot := &p.packed[prec]
	if pv := slot.Load(); pv != nil && pv.version == v {
		return pv.p
	}
	pk := mat.PackPrec(p.W, prec)
	slot.Store(&packedView{version: v, p: pk})
	return pk
}

// NewParam allocates a named r×c parameter with a zeroed gradient.
func NewParam(name string, r, c int) *Param {
	return &Param{Name: name, W: mat.New(r, c), G: mat.New(r, c)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G.Data {
		p.G.Data[i] = 0
	}
}

// Size returns the number of scalar values in the parameter.
func (p *Param) Size() int { return len(p.W.Data) }

// XavierInit fills p.W with Glorot-uniform values, the initialisation used
// for tanh/sigmoid layers.
func (p *Param) XavierInit(rng *rand.Rand) {
	fanIn, fanOut := p.W.Rows, p.W.Cols
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range p.W.Data {
		p.W.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	p.NoteUpdate()
}

// HeInit fills p.W with He-normal values, the initialisation used for ReLU
// layers.
func (p *Param) HeInit(rng *rand.Rand) {
	std := math.Sqrt(2 / float64(p.W.Rows))
	for i := range p.W.Data {
		p.W.Data[i] = rng.NormFloat64() * std
	}
	p.NoteUpdate()
}

// CountParams sums the sizes of the given parameters.
func CountParams(ps []*Param) int {
	var n int
	for _, p := range ps {
		n += p.Size()
	}
	return n
}
