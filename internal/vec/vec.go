// Package vec provides the low-level float32 vector kernels used by every
// index and clustering component in the repository: dot products, squared
// Euclidean distance, norms, and blocked batch variants.
//
// All kernels operate on plain []float32 slices. Batched variants unroll the
// inner loop in blocks of four, which is the main portable optimization
// available without assembly; they are the hot path of IVF list scans and
// k-means assignment.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length; Dot panics otherwise, since a length mismatch is a programming
// error rather than a runtime condition.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// L2Squared returns the squared Euclidean distance between a and b. Lane j
// sums dims 4k+j, leftover dims go into lane 0, and the lanes are summed as
// ((l0+l1)+l2)+l3. The float32 conversions forbid the compiler from fusing a
// multiply-add (Go may fuse otherwise, for example on arm64), so every
// platform and the AVX kernel behind L2SquaredBatch agree bit for bit.
func L2Squared(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: L2Squared length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float32(d * d)
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a in place to unit L2 norm. Zero vectors are left
// unchanged. It returns the original norm.
func Normalize(a []float32) float32 {
	n := Norm(a)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return n
}

// Cosine returns the cosine similarity of a and b, or 0 if either vector has
// zero norm.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Add accumulates src into dst element-wise (dst += src).
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: Add length mismatch %d != %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of a by s in place.
func Scale(a []float32, s float32) {
	for i := range a {
		a[i] *= s
	}
}

// Axpy computes dst += alpha * src.
func Axpy(dst []float32, alpha float32, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d != %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

// Copy returns a newly allocated copy of a.
func Copy(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Matrix is a dense row-major collection of fixed-dimension vectors backed by
// a single contiguous allocation, the layout used by index storage and
// k-means training sets.
type Matrix struct {
	Dim  int
	data []float32
}

// NewMatrix allocates an n×dim matrix of zeros.
func NewMatrix(n, dim int) *Matrix {
	if n < 0 || dim <= 0 {
		panic(fmt.Sprintf("vec: NewMatrix invalid shape %dx%d", n, dim))
	}
	return &Matrix{Dim: dim, data: make([]float32, n*dim)}
}

// MatrixFromRows builds a matrix copying the given equal-length rows.
func MatrixFromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		panic("vec: MatrixFromRows requires at least one row")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// Len returns the number of rows.
func (m *Matrix) Len() int { return len(m.data) / m.Dim }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// Data returns the backing slice (row-major).
func (m *Matrix) Data() []float32 { return m.data }

// AppendRow copies v onto the end of the matrix.
func (m *Matrix) AppendRow(v []float32) {
	if len(v) != m.Dim {
		panic(fmt.Sprintf("vec: AppendRow dim mismatch %d != %d", len(v), m.Dim))
	}
	m.data = append(m.data, v...)
}

// Bytes reports the memory footprint of the stored float32 data.
func (m *Matrix) Bytes() int64 { return int64(len(m.data)) * 4 }

// argMinBlock is how many distances ArgMinL2 computes per L2SquaredBatch
// call; the block lives on the stack.
const argMinBlock = 64

// ArgMinL2 returns the row index of m closest (squared L2) to q and the
// corresponding distance. The matrix must be non-empty. Rows are compared in
// order with a strict <, so the first of several equal minima wins.
func (m *Matrix) ArgMinL2(q []float32) (int, float32) {
	n := m.Len()
	if n == 0 {
		panic("vec: ArgMinL2 on empty matrix")
	}
	if len(q) != m.Dim {
		panic(fmt.Sprintf("vec: ArgMinL2 length mismatch %d != %d", len(q), m.Dim))
	}
	var dist [argMinBlock]float32
	best, bestDist := 0, float32(0)
	for b0 := 0; b0 < n; b0 += argMinBlock {
		bn := min(n-b0, argMinBlock)
		L2SquaredBatch(q, m.data[b0*m.Dim:], bn, dist[:bn])
		i := 0
		if b0 == 0 {
			bestDist, i = dist[0], 1
		}
		for ; i < bn; i++ {
			if dist[i] < bestDist {
				best, bestDist = b0+i, dist[i]
			}
		}
	}
	return best, bestDist
}
