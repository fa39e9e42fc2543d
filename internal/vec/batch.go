package vec

import "fmt"

// l2BatchUseAVX gates L2SquaredBatch's AVX kernel. Tests clear it to run the
// pure-Go loop on AVX2 hosts too.
var l2BatchUseAVX = hasAVX2

// HasAVX2 reports whether this process runs the AVX2 kernels: the CPU
// supports AVX and AVX2 and the OS saves the YMM registers. It is the single
// CPU feature probe shared by the vec and quant kernels.
func HasAVX2() bool { return hasAVX2 }

// L2SquaredBatch computes the squared Euclidean distance between q and each
// of the first n rows of data (row-major, stride len(q)), writing distances
// to out[:n]. It is the flat-storage scan kernel: one call evaluates a whole
// block of contiguous vectors, keeping the inner loop free of per-vector
// closure calls and bounds checks.
//
// Accumulation uses the same four-lane association as L2Squared on every
// path, so the two produce bit-identical results for the same inputs. On
// AVX2 hosts an assembly kernel scores two rows per ymm register, four rows
// in flight; elsewhere the pure-Go loop below runs.
func L2SquaredBatch(q, data []float32, n int, out []float32) {
	dim := len(q)
	if dim == 0 {
		panic("vec: L2SquaredBatch requires a non-empty query")
	}
	if len(data) < n*dim {
		panic(fmt.Sprintf("vec: L2SquaredBatch data length %d < %d rows x dim %d", len(data), n, dim))
	}
	if len(out) < n {
		panic(fmt.Sprintf("vec: L2SquaredBatch out length %d < n %d", len(out), n))
	}
	if l2BatchUseAVX {
		l2BatchAVX(q, data, n, out)
		return
	}
	for i := 0; i < n; i++ {
		out[i] = L2Squared(q, data[i*dim:i*dim+dim:i*dim+dim])
	}
}
