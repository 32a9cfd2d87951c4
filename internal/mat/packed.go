package mat

import (
	"fmt"
	"math"
)

// Packed is an immutable snapshot of a weight matrix prepared for the fused
// inference GEMMs. The layout choice is empirical: this package's product
// kernel is axpy-style (it streams b's rows contiguously and revisits an
// L1-resident destination tile), and on the target hardware that formulation
// beats a column-major dot-product formulation at every CALLOC batch size,
// single queries included (see BenchmarkMatMulPackedShapes) — so Packed
// stores the weights as row-major panels and the win comes from (a) the
// bias+activation epilogue fused into the kernel's tile loop and (b) the
// snapshot's stable identity, which lets nn.Param cache one per weight
// version instead of re-validating the live matrix. A Packed view goes stale
// when its source matrix changes — refresh it with Repack (nn.Param does
// this lazily, keyed on a version counter).
//
// A snapshot carries a Precision fixed at construction: float64 keeps a
// plain copy, float32 and int8 quantize once at pack time (per-output-channel
// symmetric scales for int8), so only the serving path ever sees reduced
// precision — the source matrix, training, and checkpoints stay float64.
// Repack requantizes from the (float64) source at the same precision.
type Packed struct {
	prec       Precision
	rows, cols int

	m     Matrix    // float64 row-major snapshot (PrecFloat64); header owned by p
	f32   []float32 // float32 row-major panels (PrecFloat32)
	q8    []int8    // int8 row-major panels (PrecInt8)
	scale []float32 // per-output-column symmetric scales (PrecInt8), len == cols
}

// Pack returns a full-precision (float64) packed copy of b.
func Pack(b *Matrix) *Packed { return PackPrec(b, PrecFloat64) }

// PackPrec returns a packed copy of b at the given precision, quantizing
// once now for int8/float32. The snapshot's precision is fixed for its
// lifetime; Repack refreshes the values at the same precision.
func PackPrec(b *Matrix, prec Precision) *Packed {
	if !prec.Valid() {
		panic(fmt.Sprintf("mat: PackPrec: invalid precision %d", prec))
	}
	p := &Packed{prec: prec}
	p.Repack(b)
	return p
}

// ensureCap returns buf resized to n, reallocating when the capacity is too
// small — or more than 2× too large. The shrink matters for long-lived
// snapshots that are repacked across model versions: without it a swap from
// a large model to a small one kept the large backing array alive for the
// lifetime of the view.
func ensureCap[T float64 | float32 | int8](buf []T, n int) []T {
	if cap(buf) < n || cap(buf) > 2*n {
		return make([]T, n)
	}
	return buf[:n]
}

// Repack refreshes p from b at p's precision, reusing p's storage when the
// capacity fits (and is not oversized beyond 2× — see ensureCap).
func (p *Packed) Repack(b *Matrix) {
	n := b.Rows * b.Cols
	p.rows, p.cols = b.Rows, b.Cols
	switch p.prec {
	case PrecFloat64:
		p.m.Data = ensureCap(p.m.Data, n)
		p.m.Rows, p.m.Cols = b.Rows, b.Cols
		copy(p.m.Data, b.Data)
	case PrecFloat32:
		p.f32 = ensureCap(p.f32, n)
		for i, v := range b.Data {
			p.f32[i] = float32(v)
		}
	case PrecInt8:
		p.q8 = ensureCap(p.q8, n)
		if cap(p.scale) < b.Cols || cap(p.scale) > 2*b.Cols {
			p.scale = make([]float32, b.Cols)
		}
		p.scale = p.scale[:b.Cols]
		quantizeColumns(p.q8, p.scale, b)
	}
}

// quantizeColumns fills q (row-major, b's shape) with per-output-channel
// symmetric int8 weights and scale with one float32 scale per column:
// scale[j] = maxabs(column j)/127, q[k][j] = round(b[k][j]/scale[j]). An
// all-zero column gets scale 0 and zero weights. Two row-major passes keep
// the pack cache-friendly; packing runs once per weight version, off the
// serving path.
func quantizeColumns(q []int8, scale []float32, b *Matrix) {
	for j := range scale {
		scale[j] = 0
	}
	cols := b.Cols
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			if a := float32(math.Abs(v)); a > scale[j] {
				scale[j] = a
			}
		}
	}
	for j, mx := range scale {
		scale[j] = mx / 127
	}
	for i := 0; i < b.Rows; i++ {
		row := b.Data[i*cols : (i+1)*cols]
		qrow := q[i*cols : (i+1)*cols]
		for j, v := range row {
			s := scale[j]
			if s == 0 {
				qrow[j] = 0
				continue
			}
			qrow[j] = int8(math.Round(v / float64(s)))
		}
	}
}

// Rows returns the row count of the source matrix.
func (p *Packed) Rows() int { return p.rows }

// Cols returns the column count of the source matrix.
func (p *Packed) Cols() int { return p.cols }

// Precision returns the snapshot's element precision.
func (p *Packed) Precision() Precision { return p.prec }

// WeightBytes returns the resident size of the snapshot's weight storage
// (panels plus scale row), the footprint /v1/models reports per model.
func (p *Packed) WeightBytes() int64 {
	switch p.prec {
	case PrecFloat32:
		return int64(len(p.f32)) * 4
	case PrecInt8:
		return int64(len(p.q8)) + int64(len(p.scale))*4
	default:
		return int64(len(p.m.Data)) * 8
	}
}

// Activation selects the element-wise epilogue fused into the packed and
// bias-fused products. Keeping it an enum (rather than a func value) lets the
// kernels inline the epilogue into the pass that materialises each output
// element.
type Activation int

const (
	// ActIdentity applies no activation.
	ActIdentity Activation = iota
	// ActReLU applies max(0, v).
	ActReLU
	// ActTanh applies tanh(v).
	ActTanh
	// ActSigmoid applies the numerically stable logistic function.
	ActSigmoid
)

// activate applies the selected activation to one value.
//
//calloc:noalloc
func activate(v float64, act Activation) float64 {
	switch act {
	case ActReLU:
		if v > 0 {
			return v
		}
		return 0
	case ActTanh:
		return math.Tanh(v)
	case ActSigmoid:
		return Sigmoid(v)
	default:
		return v
	}
}

// Sigmoid is the numerically stable logistic function 1/(1+e^−v): the
// two-branch form never exponentiates a positive argument, so it cannot
// overflow to ∞ (and then NaN) for large |v| the way the naive 1/(1+exp(−v))
// does for very negative v.
//
//calloc:noalloc
func Sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

// MulPackedInto computes a·B into dst (allocating it when nil) for a packed
// operand B, and returns dst. Sharded across goroutines for large products
// like MulInto; reduced-precision snapshots dispatch to their quantized
// kernels (kernels_quant.go). dst must not alias a.
func MulPackedInto(dst, a *Matrix, b *Packed) *Matrix {
	return mulPacked(dst, a, b, nil, ActIdentity, "MulPackedInto")
}

// MulPackedBiasActInto computes act(a·B + bias) into dst (allocating it when
// nil) and returns dst: the bias row-vector add and the activation run while
// each destination tile is still cache-hot from the product, instead of as
// separate AddRowVector and Apply passes over the full result. For int8
// snapshots the same epilogue also dequantizes the int32 accumulators. bias
// may be nil to skip the add. dst must not alias a.
func MulPackedBiasActInto(dst, a *Matrix, b *Packed, bias []float64, act Activation) *Matrix {
	return mulPacked(dst, a, b, bias, act, "MulPackedBiasActInto")
}

func mulPacked(dst, a *Matrix, p *Packed, bias []float64, act Activation, op string) *Matrix {
	if a.Cols != p.rows {
		panic(fmt.Sprintf("mat: %s inner mismatch %dx%d · %dx%d", op, a.Rows, a.Cols, p.rows, p.cols))
	}
	if bias != nil && len(bias) != p.cols {
		panic(fmt.Sprintf("mat: %s bias length %d != cols %d", op, len(bias), p.cols))
	}
	dst = prepDst(dst, a.Rows, p.cols, op)
	par := useParallel(a.Rows*a.Cols*p.cols, a.Rows)
	switch p.prec {
	case PrecFloat32:
		if par {
			shardRows(a.Rows, func(lo, hi int) { fusedMulRowsF32(dst, a, p, bias, act, lo, hi) })
		} else {
			fusedMulRowsF32(dst, a, p, bias, act, 0, a.Rows)
		}
	case PrecInt8:
		if par {
			shardRows(a.Rows, func(lo, hi int) { fusedMulRowsI8(dst, a, p, bias, act, lo, hi) })
		} else {
			fusedMulRowsI8(dst, a, p, bias, act, 0, a.Rows)
		}
	default:
		if par {
			shardRows(a.Rows, func(lo, hi int) { fusedMulRows(dst, a, &p.m, bias, act, lo, hi) })
		} else {
			fusedMulRows(dst, a, &p.m, bias, act, 0, a.Rows)
		}
	}
	return dst
}
