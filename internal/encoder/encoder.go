// Package encoder maps low-dimensional feature vectors into hyperspace.
//
// It provides the three encoder families used in the HDC/NIDS literature:
//
//   - RBF: random-Fourier-feature encoding H_d = cos(B_d·x + b_d) with
//     Gaussian base vectors (Rahimi & Recht, NeurIPS'07). The paper selects
//     this encoder for cybersecurity datasets because flow features interact
//     non-linearly. This is CyberHD's primary encoder.
//   - Linear: plain random projection H_d = B_d·x, the cheapest encoder.
//   - IDLevel: classic record-based encoding — per-feature random ID
//     hypervectors bound to correlated level hypervectors and bundled.
//
// Every encoder supports per-dimension Regenerate, the mechanism behind
// CyberHD's dynamic dimensionality: dropping an insignificant dimension
// re-draws only that dimension's base parameters, and EncodeDims recomputes
// only the affected coordinates of already-encoded data.
package encoder

import (
	"fmt"
	"math"

	"cyberhd/internal/hdc"
	"cyberhd/internal/rng"
)

// Encoder maps feature vectors of InDim() floats to hypervectors of Dim()
// floats, and can redraw the base parameters of individual dimensions.
type Encoder interface {
	// Dim returns the hyperspace (output) dimensionality.
	Dim() int
	// InDim returns the expected input feature count.
	InDim() int
	// Encode writes the hypervector for x into dst (len Dim()).
	Encode(x, dst []float32)
	// EncodeDims recomputes only the listed output dimensions of x into
	// dst[d] for each d in dims. dst must have length Dim().
	EncodeDims(x, dst []float32, dims []int)
	// Regenerate redraws the base parameters of the listed dimensions
	// from fresh random draws.
	Regenerate(dims []int)
}

// BatchEncoder is implemented by encoders with a blocked batch kernel
// (one GEMM-style pass instead of row-at-a-time encoding). EncodeBatch
// uses it when present; implementations must produce bit-identical output
// to row-at-a-time Encode.
type BatchEncoder interface {
	Encoder
	// EncodeBatchInto encodes every row of x into the matching row of out.
	EncodeBatchInto(x, out *hdc.Matrix)
}

// encPanel is the number of encoder base rows processed per kernel panel:
// 64 rows of float32 features keep a panel within L1 alongside the input
// row and pre-activation buffer. Output values are independent of the
// panel size; it only affects cache behavior.
const encPanel = 64

// EncodeBatch encodes every row of x (n×InDim) into a new n×Dim matrix
// through the blocked batch kernel when the encoder has one, otherwise
// row-at-a-time in parallel.
func EncodeBatch(e Encoder, x *hdc.Matrix) *hdc.Matrix {
	out := hdc.NewMatrix(x.Rows, e.Dim())
	EncodeBatchInto(e, x, out)
	return out
}

// EncodeBatchInto encodes every row of x into the matching row of out
// (n×Dim), reusing out's storage — the allocation-free form of
// EncodeBatch for pooled buffers.
func EncodeBatchInto(e Encoder, x, out *hdc.Matrix) {
	if x.Cols != e.InDim() {
		panic(fmt.Sprintf("encoder: batch has %d features, encoder wants %d", x.Cols, e.InDim()))
	}
	if out.Rows != x.Rows || out.Cols != e.Dim() {
		panic(fmt.Sprintf("encoder: batch output is %dx%d, want %dx%d", out.Rows, out.Cols, x.Rows, e.Dim()))
	}
	if b, ok := e.(BatchEncoder); ok {
		b.EncodeBatchInto(x, out)
		return
	}
	hdc.ParallelFor(x.Rows, func(i int) {
		e.Encode(x.Row(i), out.Row(i))
	})
}

// EncodeDimsBatch recomputes the listed output dimensions for every row of
// x into the corresponding rows of enc (n×Dim), in parallel. Used after
// Regenerate to refresh a cached encoding without re-encoding everything.
func EncodeDimsBatch(e Encoder, x, enc *hdc.Matrix, dims []int) {
	if x.Rows != enc.Rows {
		panic("encoder: EncodeDimsBatch row mismatch")
	}
	hdc.ParallelFor(x.Rows, func(i int) {
		e.EncodeDims(x.Row(i), enc.Row(i), dims)
	})
}

// RBF is the random-Fourier-feature encoder: H_d = cos(base_d · x + bias_d),
// base_d ~ N(0, gamma²·I), bias_d ~ U[0, 2π). With unit-variance inputs this
// approximates an RBF kernel feature map, giving HDC the non-linearity the
// paper needs for attack patterns.
type RBF struct {
	base  *hdc.Matrix // Dim × InDim
	bias  []float32
	gamma float64
	r     *rng.Rand
}

// NewRBF builds an RBF encoder with dim output dimensions for inDim input
// features. gamma scales the Gaussian base vectors (kernel bandwidth);
// gamma <= 0 selects the 1/sqrt(inDim) default.
func NewRBF(inDim, dim int, gamma float64, seed uint64) *RBF {
	if inDim <= 0 || dim <= 0 {
		panic("encoder: NewRBF with non-positive dims")
	}
	if gamma <= 0 {
		gamma = 1 / math.Sqrt(float64(inDim))
	}
	e := &RBF{
		base:  hdc.NewMatrix(dim, inDim),
		bias:  make([]float32, dim),
		gamma: gamma,
		r:     rng.New(seed),
	}
	e.r.FillNorm(e.base.Data, 0, gamma)
	e.r.FillUniform(e.bias, 0, 2*math.Pi)
	return e
}

// Dim returns the hyperspace dimensionality.
func (e *RBF) Dim() int { return e.base.Rows }

// InDim returns the expected feature count.
func (e *RBF) InDim() int { return e.base.Cols }

// Encode writes cos(B·x + b) into dst through the panel kernel: blocked
// lane-wise dot products (hdc.DotPanel) with the fused table-cosine
// epilogue (hdc.CosInto). Bit-identical to EncodeBatchInto and EncodeDims.
func (e *RBF) Encode(x, dst []float32) {
	if len(x) != e.InDim() || len(dst) != e.Dim() {
		panic("encoder: RBF.Encode length mismatch")
	}
	f := e.base.Cols
	var pre [encPanel]float32
	for j0 := 0; j0 < e.base.Rows; j0 += encPanel {
		j1 := j0 + encPanel
		if j1 > e.base.Rows {
			j1 = e.base.Rows
		}
		hdc.DotPanel(x, e.base.Data[j0*f:], f, pre[:j1-j0])
		hdc.CosInto(dst[j0:j1], pre[:j1-j0], e.bias[j0:j1])
	}
}

// EncodeBatchInto encodes every row of x into out as one blocked pass:
// the base matrix is walked in L1-sized panels reused across all samples
// of a chunk, so the batch costs one cache-resident GEMM plus the cosine
// epilogue instead of n independent matvecs.
func (e *RBF) EncodeBatchInto(x, out *hdc.Matrix) {
	if hdc.Serial(x.Rows) {
		e.encodeChunk(x, out, 0, x.Rows)
		return
	}
	hdc.ParallelChunks(x.Rows, func(lo, hi int) { e.encodeChunk(x, out, lo, hi) })
}

// encodeChunk encodes sample rows [lo, hi), reusing each base panel
// across the whole chunk.
func (e *RBF) encodeChunk(x, out *hdc.Matrix, lo, hi int) {
	f := e.base.Cols
	var pre [encPanel]float32
	for j0 := 0; j0 < e.base.Rows; j0 += encPanel {
		j1 := j0 + encPanel
		if j1 > e.base.Rows {
			j1 = e.base.Rows
		}
		panel := e.base.Data[j0*f:]
		for i := lo; i < hi; i++ {
			hdc.DotPanel(x.Row(i), panel, f, pre[:j1-j0])
			hdc.CosInto(out.Row(i)[j0:j1], pre[:j1-j0], e.bias[j0:j1])
		}
	}
}

// EncodeDims recomputes only the listed dimensions through the same
// kernels as Encode: hdc.DotPanel scores each listed dimension, and the
// cosine epilogue runs vectorized over up to encPanel gathered dimensions
// at a time, so the refreshed values are bit-identical to a full Encode.
func (e *RBF) EncodeDims(x, dst []float32, dims []int) {
	if len(x) != e.InDim() || len(dst) != e.Dim() {
		panic("encoder: RBF.EncodeDims length mismatch")
	}
	var pre, bias, out [encPanel]float32
	for len(dims) > 0 {
		blk := dims[:min(len(dims), encPanel)]
		dims = dims[len(blk):]
		for k, d := range blk {
			hdc.DotPanel(x, e.base.Row(d), len(x), pre[k:k+1])
			bias[k] = e.bias[d]
		}
		hdc.CosInto(out[:len(blk)], pre[:len(blk)], bias[:len(blk)])
		for k, d := range blk {
			dst[d] = out[k]
		}
	}
}

// Regenerate redraws the Gaussian base vector and phase of each listed
// dimension (paper step H: replacement draws come from the same Gaussian
// distribution as initialization).
func (e *RBF) Regenerate(dims []int) {
	for _, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic("encoder: Regenerate dimension out of range")
		}
		e.r.FillNorm(e.base.Row(d), 0, e.gamma)
		e.bias[d] = float32(2 * math.Pi * e.r.Float64())
	}
}

// Linear is a plain random-projection encoder: H_d = base_d · x. It is the
// cheapest encoder and the usual choice of static "baselineHD" systems for
// already-linear feature spaces.
type Linear struct {
	base *hdc.Matrix
	r    *rng.Rand
}

// NewLinear builds a linear random-projection encoder.
func NewLinear(inDim, dim int, seed uint64) *Linear {
	if inDim <= 0 || dim <= 0 {
		panic("encoder: NewLinear with non-positive dims")
	}
	e := &Linear{base: hdc.NewMatrix(dim, inDim), r: rng.New(seed)}
	e.r.FillNorm(e.base.Data, 0, 1/math.Sqrt(float64(inDim)))
	return e
}

// Dim returns the hyperspace dimensionality.
func (e *Linear) Dim() int { return e.base.Rows }

// InDim returns the expected feature count.
func (e *Linear) InDim() int { return e.base.Cols }

// Encode writes B·x into dst through the panel kernel.
func (e *Linear) Encode(x, dst []float32) {
	if len(x) != e.InDim() || len(dst) != e.Dim() {
		panic("encoder: Linear.Encode length mismatch")
	}
	hdc.DotPanel(x, e.base.Data, e.base.Cols, dst)
}

// EncodeBatchInto encodes the whole batch as one blocked matrix product.
func (e *Linear) EncodeBatchInto(x, out *hdc.Matrix) {
	hdc.MatMulT(x, e.base, out)
}

// EncodeDims recomputes only the listed dimensions through Encode's
// kernel, one hdc.DotPanel row per listed dimension.
func (e *Linear) EncodeDims(x, dst []float32, dims []int) {
	if len(x) != e.InDim() || len(dst) != e.Dim() {
		panic("encoder: Linear.EncodeDims length mismatch")
	}
	for _, d := range dims {
		hdc.DotPanel(x, e.base.Row(d), len(x), dst[d:d+1])
	}
}

// Regenerate redraws the base vectors of the listed dimensions.
func (e *Linear) Regenerate(dims []int) {
	sd := 1 / math.Sqrt(float64(e.InDim()))
	for _, d := range dims {
		if d < 0 || d >= e.Dim() {
			panic("encoder: Regenerate dimension out of range")
		}
		e.r.FillNorm(e.base.Row(d), 0, sd)
	}
}

// IDLevel is the record-based encoder: each feature f has a random bipolar
// ID hypervector, each quantization level l has a level hypervector built
// by progressively flipping bits of a seed vector so nearby levels stay
// correlated. A sample encodes as Σ_f ID_f ⊙ Level_{q(x_f)} where ⊙ is
// element-wise binding.
type IDLevel struct {
	inDim, dim int
	levels     int
	lo, hi     float32     // expected input range for level quantization
	id         *hdc.Matrix // inDim × dim, bipolar
	level      *hdc.Matrix // levels × dim, bipolar, correlated
	r          *rng.Rand
}

// NewIDLevel builds an ID–level encoder with the given number of
// quantization levels over the input range [lo, hi].
func NewIDLevel(inDim, dim, levels int, lo, hi float32, seed uint64) *IDLevel {
	if inDim <= 0 || dim <= 0 || levels < 2 {
		panic("encoder: NewIDLevel bad parameters")
	}
	if hi <= lo {
		panic("encoder: NewIDLevel requires hi > lo")
	}
	e := &IDLevel{
		inDim: inDim, dim: dim, levels: levels, lo: lo, hi: hi,
		id:    hdc.NewMatrix(inDim, dim),
		level: hdc.NewMatrix(levels, dim),
		r:     rng.New(seed),
	}
	for i := range e.id.Data {
		e.id.Data[i] = e.bipolar()
	}
	// Level 0 is random; each next level flips dim/(2·levels) positions so
	// level 0 and level L−1 end up roughly orthogonal.
	first := e.level.Row(0)
	for i := range first {
		first[i] = e.bipolar()
	}
	flips := dim / (2 * levels)
	if flips < 1 {
		flips = 1
	}
	for l := 1; l < levels; l++ {
		prev, cur := e.level.Row(l-1), e.level.Row(l)
		copy(cur, prev)
		for f := 0; f < flips; f++ {
			p := e.r.Intn(dim)
			cur[p] = -cur[p]
		}
	}
	return e
}

func (e *IDLevel) bipolar() float32 {
	if e.r.Uint64()&1 == 1 {
		return 1
	}
	return -1
}

// Dim returns the hyperspace dimensionality.
func (e *IDLevel) Dim() int { return e.dim }

// InDim returns the expected feature count.
func (e *IDLevel) InDim() int { return e.inDim }

// quantize maps a feature value to a level index, clamping to the range.
func (e *IDLevel) quantize(v float32) int {
	if v <= e.lo {
		return 0
	}
	if v >= e.hi {
		return e.levels - 1
	}
	l := int(float32(e.levels) * (v - e.lo) / (e.hi - e.lo))
	if l >= e.levels {
		l = e.levels - 1
	}
	return l
}

// Encode writes Σ_f ID_f ⊙ Level_{q(x_f)} into dst.
func (e *IDLevel) Encode(x, dst []float32) {
	if len(x) != e.inDim || len(dst) != e.dim {
		panic("encoder: IDLevel.Encode length mismatch")
	}
	hdc.Zero(dst)
	for f := 0; f < e.inDim; f++ {
		idRow := e.id.Row(f)
		lvRow := e.level.Row(e.quantize(x[f]))
		for d := 0; d < e.dim; d++ {
			dst[d] += idRow[d] * lvRow[d]
		}
	}
}

// EncodeDims recomputes only the listed dimensions.
func (e *IDLevel) EncodeDims(x, dst []float32, dims []int) {
	for _, d := range dims {
		var s float32
		for f := 0; f < e.inDim; f++ {
			s += e.id.At(f, d) * e.level.At(e.quantize(x[f]), d)
		}
		dst[d] = s
	}
}

// Regenerate redraws coordinate d of every ID and level hypervector for
// each listed dimension, preserving level correlation structure along the
// regenerated coordinate.
func (e *IDLevel) Regenerate(dims []int) {
	for _, d := range dims {
		if d < 0 || d >= e.dim {
			panic("encoder: Regenerate dimension out of range")
		}
		for f := 0; f < e.inDim; f++ {
			e.id.Set(f, d, e.bipolar())
		}
		v := e.bipolar()
		for l := 0; l < e.levels; l++ {
			// occasionally flip as levels advance, mirroring construction
			if l > 0 && e.r.Float64() < 1/float64(e.levels) {
				v = -v
			}
			e.level.Set(l, d, v)
		}
	}
}
