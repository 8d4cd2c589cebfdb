// Code generated by "go run ./cmd/netgen -preset sortkernels"; DO NOT EDIT.

// AVX-512 hooks of the batch kernels: feature detection and the
// assembly kernels that init plugs into the tables of batch.go. The
// kernels take their column base as an untyped pointer, so one table
// serves every 64-bit element type.
package sortkernels

import "unsafe"

//go:noescape
func simdCols2Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols3Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols4Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols5Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols6Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols7Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols8Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols9Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols10Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols11Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols12Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols13Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols14Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols15Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols16Int(base unsafe.Pointer, m int)

//go:noescape
func simdCols2Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols3Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols4Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols5Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols6Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols7Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols8Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols9Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols10Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols11Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols12Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols13Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols14Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols15Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols16Uint64(base unsafe.Pointer, m int)

//go:noescape
func simdCols2Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols3Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols4Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols5Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols6Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols7Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols8Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols9Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols10Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols11Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols12Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols13Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols14Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols15Float64(base unsafe.Pointer, m int)

//go:noescape
func simdCols16Float64(base unsafe.Pointer, m int)

//go:noescape
func simdTransTo2(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom2(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo3(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom3(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo4(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom4(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo5(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom5(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo6(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom6(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo7(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom7(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo8(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom8(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo9(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom9(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo10(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom10(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo11(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom11(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo12(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom12(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo13(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom13(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo14(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom14(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo15(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom15(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransTo16(dst, src unsafe.Pointer, m int)

//go:noescape
func simdTransFrom16(dst, src unsafe.Pointer, m int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// batchDetectAVX512 reports whether the CPU and OS support the
// AVX-512 batch kernels: AVX512F plus OS-managed xmm/ymm/opmask/zmm
// state (XCR0 bits 1, 2, 5, 6, 7 via XGETBV, gated on OSXSAVE).
func batchDetectAVX512() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	const need = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0&need != need {
		return false
	}
	_, ebx, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	return ebx&avx512f != 0
}

func init() {
	if !batchDetectAVX512() {
		return
	}
	batchSIMDAvail = true
	batchSIMDOn = true
	simdCols[simdInt][2] = simdCols2Int
	simdCols[simdInt][3] = simdCols3Int
	simdCols[simdInt][4] = simdCols4Int
	simdCols[simdInt][5] = simdCols5Int
	simdCols[simdInt][6] = simdCols6Int
	simdCols[simdInt][7] = simdCols7Int
	simdCols[simdInt][8] = simdCols8Int
	simdCols[simdInt][9] = simdCols9Int
	simdCols[simdInt][10] = simdCols10Int
	simdCols[simdInt][11] = simdCols11Int
	simdCols[simdInt][12] = simdCols12Int
	simdCols[simdInt][13] = simdCols13Int
	simdCols[simdInt][14] = simdCols14Int
	simdCols[simdInt][15] = simdCols15Int
	simdCols[simdInt][16] = simdCols16Int
	simdCols[simdUint64][2] = simdCols2Uint64
	simdCols[simdUint64][3] = simdCols3Uint64
	simdCols[simdUint64][4] = simdCols4Uint64
	simdCols[simdUint64][5] = simdCols5Uint64
	simdCols[simdUint64][6] = simdCols6Uint64
	simdCols[simdUint64][7] = simdCols7Uint64
	simdCols[simdUint64][8] = simdCols8Uint64
	simdCols[simdUint64][9] = simdCols9Uint64
	simdCols[simdUint64][10] = simdCols10Uint64
	simdCols[simdUint64][11] = simdCols11Uint64
	simdCols[simdUint64][12] = simdCols12Uint64
	simdCols[simdUint64][13] = simdCols13Uint64
	simdCols[simdUint64][14] = simdCols14Uint64
	simdCols[simdUint64][15] = simdCols15Uint64
	simdCols[simdUint64][16] = simdCols16Uint64
	simdCols[simdFloat64][2] = simdCols2Float64
	simdCols[simdFloat64][3] = simdCols3Float64
	simdCols[simdFloat64][4] = simdCols4Float64
	simdCols[simdFloat64][5] = simdCols5Float64
	simdCols[simdFloat64][6] = simdCols6Float64
	simdCols[simdFloat64][7] = simdCols7Float64
	simdCols[simdFloat64][8] = simdCols8Float64
	simdCols[simdFloat64][9] = simdCols9Float64
	simdCols[simdFloat64][10] = simdCols10Float64
	simdCols[simdFloat64][11] = simdCols11Float64
	simdCols[simdFloat64][12] = simdCols12Float64
	simdCols[simdFloat64][13] = simdCols13Float64
	simdCols[simdFloat64][14] = simdCols14Float64
	simdCols[simdFloat64][15] = simdCols15Float64
	simdCols[simdFloat64][16] = simdCols16Float64
	batchTransTo[2] = simdTransTo2
	batchTransFrom[2] = simdTransFrom2
	batchTransTo[3] = simdTransTo3
	batchTransFrom[3] = simdTransFrom3
	batchTransTo[4] = simdTransTo4
	batchTransFrom[4] = simdTransFrom4
	batchTransTo[5] = simdTransTo5
	batchTransFrom[5] = simdTransFrom5
	batchTransTo[6] = simdTransTo6
	batchTransFrom[6] = simdTransFrom6
	batchTransTo[7] = simdTransTo7
	batchTransFrom[7] = simdTransFrom7
	batchTransTo[8] = simdTransTo8
	batchTransFrom[8] = simdTransFrom8
	batchTransTo[9] = simdTransTo9
	batchTransFrom[9] = simdTransFrom9
	batchTransTo[10] = simdTransTo10
	batchTransFrom[10] = simdTransFrom10
	batchTransTo[11] = simdTransTo11
	batchTransFrom[11] = simdTransFrom11
	batchTransTo[12] = simdTransTo12
	batchTransFrom[12] = simdTransFrom12
	batchTransTo[13] = simdTransTo13
	batchTransFrom[13] = simdTransFrom13
	batchTransTo[14] = simdTransTo14
	batchTransFrom[14] = simdTransFrom14
	batchTransTo[15] = simdTransTo15
	batchTransFrom[15] = simdTransFrom15
	batchTransTo[16] = simdTransTo16
	batchTransFrom[16] = simdTransFrom16
}
