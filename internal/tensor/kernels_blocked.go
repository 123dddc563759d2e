// Blocked matmul kernel with runtime-dispatched inner saxpy sweeps.
// There used to be two copies of this file behind a `vecmm` build tag
// (portable vs SSE2); the tag is gone. One tiling skeleton now runs the
// innermost j-sweeps through the saxpy4Impl/saxpy1Impl function
// pointers, which kernels_dispatch*.go point at the widest kernel the
// CPU supports (portable Go, SSE2, AVX2, or — behind an explicit
// relaxed-identity opt-in — AVX2+FMA).
//
// Bit-identity contract: for one output element dst[i][j] the kernel
// performs, in ascending p order, one single-precision multiply and one
// single-precision add per nonzero a term. The SSE2/AVX2 saxpy kernels
// keep the four unrolled terms as four sequential mul+add pairs per
// element (MULPS/ADDPS and VMULPS/VADDPS are lane-independent IEEE
// binary32 operations; no FMA contraction, no reassociation), so every
// vector lane reproduces the scalar rounding sequence exactly. The four
// terms of one saxpy4 call are the next four *nonzero* a terms in
// ascending p, not necessarily four adjacent p's: zeros are dropped from
// the group, never added as 0*b. That zero-skip is decided here in Go
// before entering any assembly,
// matching the reference kernel's skip behaviour (relevant for signed
// zeros and Inf/NaN propagation: 0*Inf would introduce a NaN the
// reference kernel never sees). Only the FMA kernel — never selected by
// default — fuses each mul+add into one rounding.

package tensor

// matMulBlocked accumulates dst[rowLo:rowHi] += a[rowLo:rowHi]·b with a
// three-level i/k/j tiling. dst rows in the range must be zero on entry.
// For a fixed output element the k-blocks are visited in ascending order
// and p ascends within each block, so the float32 accumulation sequence
// matches the reference ikj kernel exactly (including the skip of zero
// a-elements, which contribute no term there either).
//
// The inner kernel gathers the next four nonzero a terms of the k-block,
// in ascending p, into one saxpy4 j-sweep, which saves three quarters of
// the dst loads and stores. Because saxpy4 applies its four terms as
// sequential mul+add pairs, a group whose p's are not adjacent adds the
// same terms in the same order as the per-p loop; zeros between them are
// skipped here exactly as the reference skips them. Post-ReLU im2col rows
// (LeNet's conv GEMMs) are full of zeros, so this keeps them on the wide
// kernel instead of one scalar call per term. The fewer than four
// nonzero terms left at the end of a k-block go through saxpy1.
func matMulBlocked(dst, a, b []float32, rowLo, rowHi, k, n, tileI, tileK, tileJ int) {
	if tileI < 1 {
		tileI = defaultTileI
	}
	if tileK < 1 {
		tileK = defaultTileK
	}
	if tileJ < 1 {
		tileJ = defaultTileJ
	}
	saxpy4, saxpy1 := saxpy4Impl, saxpy1Impl
	for ii := rowLo; ii < rowHi; ii += tileI {
		iMax := min(ii+tileI, rowHi)
		for kk := 0; kk < k; kk += tileK {
			kMax := min(kk+tileK, k)
			for jj := 0; jj < n; jj += tileJ {
				jMax := min(jj+tileJ, n)
				for i := ii; i < iMax; i++ {
					arow := a[i*k : i*k+kMax]
					orow := dst[i*n+jj : i*n+jMax]
					var ps [4]int
					np := 0
					for p := kk; p < kMax; p++ {
						if arow[p] == 0 {
							continue
						}
						ps[np] = p
						np++
						if np == 4 {
							p0, p1, p2, p3 := ps[0], ps[1], ps[2], ps[3]
							b0 := b[p0*n+jj : p0*n+jMax]
							b1 := b[p1*n+jj : p1*n+jMax][:len(b0)]
							b2 := b[p2*n+jj : p2*n+jMax][:len(b0)]
							b3 := b[p3*n+jj : p3*n+jMax][:len(b0)]
							saxpy4(orow, arow[p0], arow[p1], arow[p2], arow[p3], b0, b1, b2, b3)
							np = 0
						}
					}
					for _, p := range ps[:np] {
						saxpy1(orow, arow[p], b[p*n+jj:p*n+jMax])
					}
				}
			}
		}
	}
}

// saxpy4Go computes orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
// with four sequential single-precision multiply-add pairs per element —
// the portable reference every vector kernel must match bit-for-bit.
// b0..b3 must have equal length, and orow at least that length.
func saxpy4Go(orow []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b1 = b1[:len(b0)]
	b2 = b2[:len(b0)]
	b3 = b3[:len(b0)]
	for j := range b0 {
		v := orow[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		orow[j] = v
	}
}

// saxpy1Go computes orow[j] += a*brow[j] for j in [0, len(brow)).
func saxpy1Go(orow []float32, a float32, brow []float32) {
	for j, bv := range brow {
		orow[j] += a * bv
	}
}
