package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// randomBSR builds a BSR with each block present with probability
// density, guaranteeing at least one block per block row so the product
// exercises every output row, then fills stored blocks with random
// values, including a sprinkle of exact zeros: stored zeros are scalars
// like any other, and the kernels must treat them exactly as MulDense
// does.
func randomBSR(t testing.TB, rng *rand.Rand, rows, cols, bs int, density float64) *BSR {
	t.Helper()
	br, bc := rows/bs, cols/bs
	var pattern [][2]int
	for i := 0; i < br; i++ {
		placed := false
		for j := 0; j < bc; j++ {
			if rng.Float64() < density {
				pattern = append(pattern, [2]int{i, j})
				placed = true
			}
		}
		if !placed {
			pattern = append(pattern, [2]int{i, rng.Intn(bc)})
		}
	}
	b, err := NewBSR(rows, cols, bs, pattern)
	if err != nil {
		t.Fatalf("NewBSR: %v", err)
	}
	for i := range b.Blocks {
		b.Blocks[i] = rng.Float32()*2 - 1
	}
	for z := 0; z < len(b.Blocks)/7; z++ {
		b.Blocks[rng.Intn(len(b.Blocks))] = 0
	}
	return b
}

// TestMulDenseMicroMatchesReference demands bit equality between the
// block-specialized Into kernels and the scalar MulDense oracle (then a
// bias/activation sweep for the fused form, a row slice for the
// tensor-parallel window) across block sizes covering the bs=4/8
// unrolls, the tiled path, and its scalar tail.
func TestMulDenseMicroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, bs := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, k := range []int{1, 3, 17} {
			rows, cols := 6*bs, 5*bs
			b := randomBSR(t, rng, rows, cols, bs, 0.4)
			x := tensor.New(cols, k)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			lin := b.MulDense(x)
			got := tensor.New(rows, k)

			b.MulDenseInto(got, x)
			assertSameMat(t, fmt.Sprintf("bs=%d k=%d MulDenseInto", bs, k), lin, got)

			for _, w := range [][2]int{{0, 6}, {0, 1}, {2, 5}, {5, 6}} {
				br0, br1 := w[0], w[1]
				win := tensor.New((br1-br0)*bs, k)
				b.MulDenseRowsInto(win, x, br0, br1)
				want := tensor.FromSlice(win.Rows, k, lin.Data[br0*bs*k:br1*bs*k])
				assertSameMat(t, fmt.Sprintf("bs=%d k=%d MulDenseRowsInto[%d,%d)", bs, k, br0, br1), want, win)
			}

			bias := make([]float32, rows)
			for i := range bias {
				bias[i] = rng.Float32()*2 - 1
			}
			for _, act := range []tensor.Activation{tensor.ActNone, tensor.ActReLU} {
				for _, bv := range [][]float32{bias, nil} {
					want := lin.Clone()
					for i := 0; i < want.Rows; i++ {
						row := want.Row(i)
						for j, v := range row {
							if bv != nil {
								v += bv[i]
							}
							row[j] = act.Apply(v)
						}
					}
					b.MulDenseBiasActInto(got, x, bv, act)
					assertSameMat(t, fmt.Sprintf("bs=%d k=%d bias=%t/%v", bs, k, bv != nil, act), want, got)
				}
			}
		}
	}
}

// TestBSRStoredZeroTimesInf pins the IEEE result of a stored zero weight
// meeting a non-finite input: 0·(+Inf) is NaN in the oracle and in every
// kernel, full product and tensor-parallel window alike (known-issues ledger,
// "BSR computed two different float32 chains").
func TestBSRStoredZeroTimesInf(t *testing.T) {
	for _, bs := range []int{3, 4, 8} {
		b, err := NewBSR(2*bs, 2*bs, bs, [][2]int{{0, 0}, {0, 1}, {1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Blocks {
			b.Blocks[i] = 1
		}
		b.Blocks[0] = 0 // row 0, column 0 of block (0,0)
		x := tensor.New(2*bs, 2)
		x.Data[0] = float32(math.Inf(1)) // feature 0, column 0
		x.Data[1] = 1

		ref := b.MulDense(x)
		if v := ref.At(0, 0); !math.IsNaN(float64(v)) {
			t.Fatalf("bs=%d: MulDense (0,0) = %v, want NaN (0·Inf)", bs, v)
		}
		if v := ref.At(1, 0); !math.IsInf(float64(v), 1) {
			t.Fatalf("bs=%d: MulDense (1,0) = %v, want +Inf", bs, v)
		}
		got := tensor.New(2*bs, 2)
		b.MulDenseInto(got, x)
		assertSameBits(t, fmt.Sprintf("bs=%d MulDenseInto", bs), ref, got)
		b.MulDenseBiasActInto(got, x, nil, tensor.ActNone)
		assertSameBits(t, fmt.Sprintf("bs=%d MulDenseBiasActInto", bs), ref, got)
		for br := 0; br < 2; br++ {
			win := tensor.New(bs, 2)
			b.MulDenseRowsInto(win, x, br, br+1)
			want := tensor.FromSlice(bs, 2, ref.Data[br*bs*2:(br+1)*bs*2])
			assertSameBits(t, fmt.Sprintf("bs=%d MulDenseRowsInto[%d]", bs, br), want, win)
		}
	}
}

// assertSameBits is assertSameMat that also holds NaNs to bit equality.
func assertSameBits(t *testing.T, op string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: data[%d] = %v, want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMicroVariantNames(t *testing.T) {
	for _, tc := range []struct {
		bs   int
		want string
	}{{4, "unroll4"}, {8, "unroll8"}, {3, "blocktiled"}, {16, "blocktiled"}} {
		b, err := NewBSR(tc.bs*2, tc.bs*2, tc.bs, [][2]int{{0, 0}, {1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.MicroVariant(); got != tc.want {
			t.Errorf("bs=%d: MicroVariant() = %q, want %q", tc.bs, got, tc.want)
		}
	}
}

func assertSameMat(t *testing.T, op string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: data[%d] = %v, want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkBSRMulDense compares the scalar MulDense oracle (which also
// allocates its result) against the block-specialized Into kernel at
// serving-realistic shapes: pixelated
// butterfly weights at width 1024, including the transposed batch-1
// case (k=1) that dominates serving.
func BenchmarkBSRMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	for _, bs := range []int{4, 8, 16} {
		for _, k := range []int{1, 16} {
			n := 1024
			m := randomBSR(b, rng, n, n, bs, 0.1)
			x := tensor.New(n, k)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			out := tensor.New(n, k)
			flops := int64(2*bs*bs*k) * int64(m.NumBlocks())
			b.Run(fmt.Sprintf("ref/bs%dk%d", bs, k), func(b *testing.B) {
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					m.MulDense(x)
				}
			})
			b.Run(fmt.Sprintf("micro/bs%dk%d", bs, k), func(b *testing.B) {
				b.SetBytes(flops)
				for i := 0; i < b.N; i++ {
					m.MulDenseInto(out, x)
				}
			})
		}
	}
}
