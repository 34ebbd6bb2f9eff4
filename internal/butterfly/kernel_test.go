package butterfly

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestMicroSweepsMatchReference checks every specialized stage kernel
// against the scalar oracle sweep, bit-for-bit, across sizes that put
// each stage through the half ∈ {1,2,4} unrolls and the wide path.
func TestMicroSweepsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 256} {
		b := New(n, Dense2x2, rng)
		for rows := 1; rows <= 3; rows++ {
			x := tensor.New(rows, n)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			for _, f := range b.Factors {
				want := tensor.New(rows, n)
				got := tensor.New(rows, n)
				applyFactorRows(f, x, want)
				factorRows(f, x, got)
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("n=%d stage=%d rows=%d: data[%d] = %v, want %v",
							n, f.Stage, rows, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestApplyIntoMicroMatchesReference checks the production kernel —
// perm, ping-pong, unrolled sweeps, fused epilogue — against the
// allocating Apply followed by the bias/activation sweep, bit-for-bit,
// with and without bias and for both activations. The sizes cover the
// factorless N=1 case, the narrow epilogue (N < 16) and the wide one.
func TestApplyIntoMicroMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		b := New(n, Dense2x2, rng)
		ws := tensor.NewWorkspace()
		for rows := 1; rows <= 4; rows += 3 {
			x := tensor.New(rows, n)
			for i := range x.Data {
				x.Data[i] = rng.Float32()*2 - 1
			}
			bias := make([]float32, n)
			for i := range bias {
				bias[i] = rng.Float32()*2 - 1
			}
			lin := b.Apply(x)
			got := tensor.New(rows, n)

			ws.Reset()
			b.ApplyInto(got, x, ws)
			assertSame(t, n, rows, "ApplyInto", lin, got)

			for _, act := range []tensor.Activation{tensor.ActNone, tensor.ActReLU} {
				for _, bv := range [][]float32{bias, nil} {
					want := tensor.New(rows, n)
					tensor.ApplyBiasActInto(want, lin, bv, act)
					ws.Reset()
					b.ApplyIntoEpilogue(got, x, ws, bv, act)
					assertSame(t, n, rows, fmt.Sprintf("ApplyIntoEpilogue/bias=%t/%v", bv != nil, act), want, got)
				}
			}
		}
	}
}

func assertSame(t *testing.T, n, rows int, op string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s n=%d rows=%d: data[%d] = %v, want %v", op, n, rows, i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkApplyFactorRows compares the scalar oracle sweep against the
// unrolled production sweep across the full stage ladder at
// serving-realistic shapes.
func BenchmarkApplyFactorRows(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][2]int{{1, 256}, {16, 256}, {1, 1024}, {16, 1024}} {
		rows, n := sh[0], sh[1]
		bf := New(n, Dense2x2, rng)
		x := tensor.New(rows, n)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		out := tensor.New(rows, n)
		// One "op" sweeps every stage once: the whole transform's work.
		flops := int64(rows) * int64(len(bf.Factors)) * int64(n) * 3
		b.Run(fmt.Sprintf("ref/b%dxn%d", rows, n), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				for _, f := range bf.Factors {
					applyFactorRows(f, x, out)
				}
			}
		})
		b.Run(fmt.Sprintf("unrolled/b%dxn%d", rows, n), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				for _, f := range bf.Factors {
					factorRows(f, x, out)
				}
			}
		})
	}
}
