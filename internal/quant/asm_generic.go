//go:build !amd64

package quant

// No assembly kernels on this architecture; the batch scans fall back to the
// pure-Go loops, which compute the same SQ8 distances as the amd64 kernel.
var sq8UseAVX2 = false

const pqUseAsm = false

// sq8ScanAVX2 is never called when sq8UseAVX2 is false.
func sq8ScanAVX2(codes []byte, qm, scale []float32, n int, out []float32) {
	panic("quant: sq8ScanAVX2 called without AVX2 support")
}

// pqScanAsm is never called when pqUseAsm is false.
func pqScanAsm(codes []byte, tables [][256]float32, n int, out []float32) {
	panic("quant: pqScanAsm called without assembly support")
}
