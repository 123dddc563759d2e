package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMatMul is the naive reference ikj kernel the blocked/parallel
// variants must match bit-for-bit: ascending p, one float32 add per term,
// zero a-elements skipped.
func refMatMul(a, b *Tensor) *Tensor {
	return refMatMulAcc(MustNew(a.Dim(0), b.Dim(1)), a, b)
}

// refMatMulAcc is refMatMul accumulating onto a copy of acc instead of
// onto zeros.
func refMatMulAcc(acc, a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := acc.Clone()
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

// randMat fills a matrix with values where roughly a quarter are exact
// zeros, exercising the zero-skip paths of both kernels.
func randMat(rng *rand.Rand, rows, cols int) *Tensor {
	t := MustNew(rows, cols)
	for i := range t.Data {
		if rng.Intn(4) == 0 {
			continue
		}
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// sparseCase is one operand pair for the zero-skip grouping of
// matMulBlocked. A non-nil acc is the destination's starting value,
// accumulated onto instead of zeros.
type sparseCase struct {
	name string
	a, b *Tensor
	acc  *Tensor
}

// withDensity fills a rows x cols matrix with normal values, then zeroes
// pct percent of its elements (rounded, at random positions).
func withDensity(rng *rand.Rand, rows, cols, pct int) *Tensor {
	t := MustNew(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	for _, i := range rng.Perm(len(t.Data))[:len(t.Data)*pct/100] {
		t.Data[i] = 0
	}
	return t
}

// sparseCases covers what the nonzero grouping must get right: zero
// densities from none to all; runs of zeros that straddle 4-groups and
// the default 128-deep k-tile edge; negative-zero a terms (equal to zero,
// so skipped); -0 accumulators, which a 0*b term would turn into +0;
// Inf and NaN in b, which a 0*b term would turn into NaN; and the two
// conv GEMMs of LeNet-5 (conv_1 on a digit, conv_2 after ReLU).
func sparseCases() []sparseCase {
	rng := rand.New(rand.NewSource(31))
	var out []sparseCase
	for _, pct := range []int{0, 50, 90, 100} {
		out = append(out, sparseCase{
			name: fmt.Sprintf("zeros%d%%", pct),
			a:    withDensity(rng, 13, 300, pct),
			b:    randMat(rng, 300, 19),
		})
	}

	runs := withDensity(rng, 9, 260, 0)
	for i := 0; i < 9; i++ {
		row := runs.Data[i*260 : (i+1)*260]
		// Runs start at every offset mod 4 and cross p=128 and p=256.
		for _, r := range [][2]int{{i % 4, i%4 + 5}, {14, 23}, {125 - i, 131 + i}, {200 + i, 203 + i}, {253, 260}} {
			clear(row[r[0]:r[1]])
		}
	}
	out = append(out, sparseCase{name: "zero-runs", a: runs, b: randMat(rng, 260, 11)})

	// Signed zeros: every b column is all -0, all +0 or ordinary, and
	// each a row is one-signed, so its nonzero terms add only -0 to the
	// -0 accumulators of some columns. A +0 or -0 a term that was not
	// skipped would add a +0 there and flip the result to +0.
	negZero := float32(math.Copysign(0, -1))
	signed := withDensity(rng, 8, 150, 40)
	for i := range signed.Data {
		switch v := signed.Data[i]; {
		case v == 0 && i%2 == 1:
			signed.Data[i] = negZero
		case (i/150)%2 == 0:
			signed.Data[i] = float32(math.Abs(float64(v)))
		default:
			signed.Data[i] = -float32(math.Abs(float64(v)))
		}
	}
	acc := MustNew(8, 15)
	for i := range acc.Data {
		acc.Data[i] = negZero
	}
	bz := randMat(rng, 150, 15)
	for i := range bz.Data {
		switch i % 3 {
		case 0:
			bz.Data[i] = negZero
		case 1:
			bz.Data[i] = 0
		}
	}
	out = append(out, sparseCase{name: "negative-zero", a: signed, b: bz, acc: acc})

	for _, set := range specialSets() {
		b := MustNew(150, 16)
		fillSpecial(b.Data, rng, set.bVals)
		out = append(out, sparseCase{name: "b-" + set.name, a: withDensity(rng, 23, 150, 60), b: b})
	}

	conv1 := withDensity(rng, 784, 25, 0)
	for i := range conv1.Data {
		// A digit on a blank page: most taps read background.
		if (i/25)%28 < 8 || (i/25)%28 > 20 || i%5 == 0 {
			conv1.Data[i] = 0
		}
	}
	out = append(out, sparseCase{name: "lenet-conv_1", a: conv1, b: randMat(rng, 25, 6)})
	conv2 := withDensity(rng, 100, 150, 0)
	for i := range conv2.Data {
		conv2.Data[i] = max(conv2.Data[i], 0) // post-ReLU
	}
	out = append(out, sparseCase{name: "lenet-conv_2", a: conv2, b: randMat(rng, 150, 16)})
	return out
}

// run computes the case with matMulBlocked at the given tiles: through
// MatMulIntoTiles onto a dirty destination, or onto acc directly.
func (c sparseCase) run(t *testing.T, tileI, tileK, tileJ int) *Tensor {
	t.Helper()
	m, k, n := c.a.Dim(0), c.a.Dim(1), c.b.Dim(1)
	if c.acc != nil {
		dst := c.acc.Clone()
		matMulBlocked(dst.Data, c.a.Data, c.b.Data, 0, m, k, n, tileI, tileK, tileJ)
		return dst
	}
	dst := MustNew(m, n)
	for i := range dst.Data {
		dst.Data[i] = float32(math.NaN())
	}
	if err := MatMulIntoTiles(dst, c.a, c.b, tileI, tileK, tileJ); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return dst
}

// want is the reference result of the case.
func (c sparseCase) want() *Tensor {
	if c.acc != nil {
		return refMatMulAcc(c.acc, c.a, c.b)
	}
	return refMatMul(c.a, c.b)
}

// forEachExactKernel runs fn under the generic kernel and every
// bit-identical vector kernel this CPU offers, restoring the startup
// dispatch afterwards.
func forEachExactKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	startup := MatMulKernel()
	defer func() {
		if err := SetMatMulKernel(startup); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range MatMulKernels() {
		if name == KernelFMA {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if err := SetMatMulKernel(name); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}

func assertBitIdentical(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, want %d", label, got.Size(), want.Size())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x", label,
				i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

func TestMatMulIntoTilesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 33}, {64, 64, 64}, {70, 130, 520},
	}
	var cases []sparseCase
	for _, d := range dims {
		cases = append(cases, sparseCase{
			name: fmt.Sprintf("%dx%dx%d", d.m, d.k, d.n),
			a:    randMat(rng, d.m, d.k),
			b:    randMat(rng, d.k, d.n),
		})
	}
	cases = append(cases, sparseCases()...)
	forEachExactKernel(t, func(t *testing.T) {
		for _, c := range cases {
			want := c.want()
			tiles := []int{1, 3, 8, 17, c.a.Dim(1), c.a.Dim(1) + 5, 0 /* defaults */}
			for _, ti := range tiles {
				for _, tk := range tiles {
					got := c.run(t, ti, tk, tk)
					assertBitIdentical(t, got, want, fmt.Sprintf("%s tiles %d,%d", c.name, ti, tk))
				}
			}
		}
	})
}

func TestMatMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 37, 53)
	b := randMat(rng, 53, 29)
	want := refMatMul(a, b)
	for _, workers := range []int{1, 2, 4, 64 /* > rows */} {
		dst := MustNew(37, 29)
		for i := range dst.Data {
			dst.Data[i] = -1
		}
		if err := MatMulParallel(dst, a, b, workers); err != nil {
			t.Fatalf("MatMulParallel(workers=%d): %v", workers, err)
		}
		assertBitIdentical(t, dst, want, "parallel")
	}
}

func TestMatMulMatchesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 12, 40)
	b := randMat(rng, 40, 7)
	viaAlloc, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, viaAlloc, refMatMul(a, b), "MatMul")
}

func TestMatMulIntoErrors(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(3, 4)
	if err := MatMulInto(MustNew(2, 5), a, b); err == nil {
		t.Fatal("wrong dst shape accepted")
	}
	if err := MatMulInto(MustNew(4, 2), b, a); err == nil {
		t.Fatal("inner dim mismatch accepted")
	}
	sq := MustNew(3, 3)
	if err := MatMulInto(sq, sq, MustNew(3, 3)); err == nil {
		t.Fatal("aliased dst accepted")
	}
	if err := MatMulParallel(MustNew(2, 5), a, b, 2); err == nil {
		t.Fatal("parallel wrong dst shape accepted")
	}
	if err := MatMulParallel(sq, MustNew(3, 3), sq, 2); err == nil {
		t.Fatal("parallel aliased dst accepted")
	}
}

func TestIm2ColIntoMatchesIm2ColRect(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct{ h, w, c, kh, kw, stride, padH, padW int }{
		{5, 5, 1, 3, 3, 1, 0, 0},
		{6, 7, 3, 3, 3, 1, 1, 1},
		{9, 9, 2, 5, 5, 2, 2, 2},
		{4, 4, 8, 1, 1, 1, 0, 0},
		{8, 6, 3, 3, 2, 2, 1, 0},
		{28, 28, 1, 5, 5, 1, 2, 2}, // LeNet-5 conv_1
		{14, 14, 6, 5, 5, 1, 0, 0}, // LeNet-5 conv_2
		{4, 5, 2, 3, 3, 1, 3, 4},   // pad >= kernel: whole windows in the padding
		{3, 3, 1, 2, 2, 3, 2, 2},   // strided windows fully outside the input
		{2, 7, 3, 1, 4, 2, 0, 5},   // windows past both horizontal edges
	}
	for _, tc := range cases {
		x := MustNew(tc.h, tc.w, tc.c)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		want, wantOH, wantOW, err := Im2ColRect(x, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		if err != nil {
			t.Fatalf("Im2ColRect(%+v): %v", tc, err)
		}
		// Dirty scratch: explicit zero-writes must make reuse identical.
		dst := make([]float32, want.Size())
		for i := range dst {
			dst[i] = float32(math.NaN())
		}
		oh, ow, err := Im2ColInto(dst, x, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		if err != nil {
			t.Fatalf("Im2ColInto(%+v): %v", tc, err)
		}
		if oh != wantOH || ow != wantOW {
			t.Fatalf("Im2ColInto(%+v): out %dx%d, want %dx%d", tc, oh, ow, wantOH, wantOW)
		}
		ref := refIm2Col(x, tc.kh, tc.kw, tc.stride, tc.padH, tc.padW)
		for i := range want.Data {
			if math.Float32bits(dst[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("Im2ColInto(%+v): element %d = %v, want %v", tc, i, dst[i], want.Data[i])
			}
			if math.Float32bits(dst[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("Im2ColInto(%+v): element %d = %v, per-tap reference %v", tc, i, dst[i], ref[i])
			}
		}
	}
}

// refIm2Col lowers x one tap at a time: row (oy, ox), column
// (ky, kx, ch) holds x[oy*stride+ky-padH][ox*stride+kx-padW][ch], or 0
// where that lies in the padding.
func refIm2Col(x *Tensor, kh, kw, stride, padH, padW int) []float32 {
	h, w, c := x.Dim(0), x.Dim(1), x.Dim(2)
	outH, outW := ConvOutDim(h, kh, stride, padH), ConvOutDim(w, kw, stride, padW)
	var out []float32
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					for ch := 0; ch < c; ch++ {
						iy, ix := oy*stride+ky-padH, ox*stride+kx-padW
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = x.At(iy, ix, ch)
						}
						out = append(out, v)
					}
				}
			}
		}
	}
	return out
}

func TestIm2ColIntoErrors(t *testing.T) {
	x := MustNew(5, 5, 2)
	if _, _, err := Im2ColInto(make([]float32, 4), x, 3, 3, 1, 0, 0); err == nil {
		t.Fatal("undersized dst accepted")
	}
	if _, _, err := Im2ColInto(make([]float32, 1024), x, 3, 3, 0, 0, 0); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, _, err := Im2ColInto(make([]float32, 1024), MustNew(5, 5), 3, 3, 1, 0, 0); err == nil {
		t.Fatal("rank-2 input accepted")
	}
	if _, _, err := Im2ColInto(make([]float32, 1024), x, 9, 9, 1, 0, 0); err == nil {
		t.Fatal("collapsing geometry accepted")
	}
}

// TestShapeDefensiveCopy pins the fix for Shape() returning the internal
// slice: callers mutating the returned shape must not corrupt the tensor.
func TestShapeDefensiveCopy(t *testing.T) {
	x := MustNew(2, 3, 4)
	s := x.Shape()
	s[0], s[1], s[2] = 99, 99, 99
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("mutating Shape() result corrupted dims: %v", x.Shape())
	}
	if got := x.At(1, 2, 3); got != x.Data[len(x.Data)-1] {
		t.Fatalf("indexing broken after Shape() mutation: got %v", got)
	}
	y := MustNew(4)
	if got := y.Shape(); &got[0] == &y.Shape()[0] {
		t.Fatal("Shape() returned a shared backing array")
	}
}
