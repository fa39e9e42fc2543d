//go:build amd64

package quant

import "repro/internal/vec"

// sq8UseAVX2 gates the AVX2 SQ8 block kernel on vec's CPU probe; without
// AVX2 the scan runs the pure-Go sq8Scan, which computes the same bits.
// Tests clear it to run the Go loop on AVX2 hosts too. pqUseAsm gates the
// PQ gather kernel, which uses SSE2 only (part of the amd64 baseline), so it
// needs no runtime feature detection.
var sq8UseAVX2 = vec.HasAVX2()

const pqUseAsm = true

// pqScanAsm evaluates n contiguous ADC codes of len(tables) subquantizer
// bytes each against the per-query gather tables, writing distances to
// out[:n]. Preconditions (enforced by the caller): len(tables) > 0 and a
// multiple of 4, len(codes) >= n*len(tables), len(out) >= n. Codes are
// processed in pairs with eight scalar accumulator chains to hide ADDSS
// latency behind the L1 table gathers. Implemented in pq_amd64.s.
//
//go:noescape
func pqScanAsm(codes []byte, tables [][256]float32, n int, out []float32)

// sq8ScanAVX2 scores n contiguous SQ8 codes of len(qm) bytes each, writing
// out[i] = sum_d (qm[d] - float32(code_i[d])*scale[d])^2 bit-identically to
// sq8Scan. Preconditions (enforced by the caller): len(qm) > 0 and a
// multiple of 4, len(scale) >= len(qm), len(codes) >= n*len(qm),
// len(out) >= n. Implemented in sq8_amd64.s.
//
//go:noescape
func sq8ScanAVX2(codes []byte, qm, scale []float32, n int, out []float32)
