//go:build !amd64

package vec

// No SIMD kernels on this architecture; every kernel runs its pure-Go loop.
const hasAVX2 = false

// l2BatchAVX is never called when hasAVX2 is false.
func l2BatchAVX(q, data []float32, n int, out []float32) {
	panic("vec: l2BatchAVX called without AVX support")
}
