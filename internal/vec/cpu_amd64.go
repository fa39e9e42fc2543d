//go:build amd64

package vec

// hasAVX2 is the one CPU feature probe of the repository's kernels: the CPU
// implements AVX and AVX2 and the OS saves the YMM register state across
// context switches (OSXSAVE set and XCR0 enables XMM and YMM). Kernels that
// need it fall back to pure Go when it is false.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with the given leaf and subleaf. Implemented in
// cpu_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0. Only call it when CPUID
// reports OSXSAVE. Implemented in cpu_amd64.s.
func xgetbv() (eax, edx uint32)

// l2BatchAVX is L2SquaredBatch's AVX kernel. Preconditions (enforced by the
// caller): len(q) > 0, len(data) >= n*len(q), len(out) >= n. Implemented in
// l2_amd64.s.
//
//go:noescape
func l2BatchAVX(q, data []float32, n int, out []float32)
