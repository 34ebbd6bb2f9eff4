package tensor

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/tensor/microkernel"
)

// PackedB is a weight matrix repacked into the column-panel layout the
// register-tiled micro-kernel consumes (see internal/tensor/microkernel).
// Packing happens once — at plan-compile time, since weights are
// read-only — so steady-state execution stays allocation-free and the
// kernel's inner loop streams the panel sequentially with no bounds
// checks.
type PackedB struct {
	rows, cols int
	data       []float32
}

// Pack repacks b (treated as the right-hand operand of a matmul) into
// NR-wide column panels. The returned value is immutable and safe for
// concurrent use.
func Pack(b *Matrix) *PackedB {
	pb := &PackedB{
		rows: b.Rows,
		cols: b.Cols,
		data: make([]float32, microkernel.PackedLen(b.Rows, b.Cols)),
	}
	microkernel.PackB(pb.data, b.Data, b.Rows, b.Cols)
	return pb
}

// Rows reports the packed matrix's logical row count (the reduction
// depth of the matmul).
func (pb *PackedB) Rows() int { return pb.rows }

// Cols reports the packed matrix's logical column count.
func (pb *PackedB) Cols() int { return pb.cols }

func checkPackedShapes(name string, dst, a *Matrix, pb *PackedB) {
	if a.Cols != pb.rows {
		panic(fmt.Sprintf("tensor: %s shape mismatch (%d×%d)·packed(%d×%d)", name, a.Rows, a.Cols, pb.rows, pb.cols))
	}
	checkIntoShape(name, dst, a.Rows, pb.cols)
}

// MatMulPackedInto computes dst = a·B through the register-tiled
// micro-kernel. Bit-for-bit equal to MatMulInto up to the sign of exact
// zeros (the tiled path drops the reference av==0 skip, which only
// affects signed-zero outputs).
func MatMulPackedInto(dst, a *Matrix, pb *PackedB) {
	checkPackedShapes("MatMulPackedInto", dst, a, pb)
	microkernel.MatMul(dst.Data, dst.Cols, 0, a.Data, a.Cols, 0, a.Rows, pb.data, pb.rows, pb.cols, nil, false)
}

// MatMulPackedParallelInto is the row-parallel form of MatMulPackedInto,
// using the same worker count, serial-cutoff product, and chunking as
// MatMulParallelInto so scheduling behaviour is comparable. Rows are
// independent, so the partition never affects results.
func MatMulPackedParallelInto(dst, a *Matrix, pb *PackedB) {
	checkPackedShapes("MatMulPackedParallelInto", dst, a, pb)
	matMulPackedRowsParallel(dst, a, pb, nil, false)
}

// MatMulPackedBiasActParallelInto computes dst = act(a·B + bias) through
// the register-tiled micro-kernel, row-parallel like
// MatMulPackedParallelInto; bias may be nil.
func MatMulPackedBiasActParallelInto(dst, a *Matrix, pb *PackedB, bias []float32, act Activation) {
	checkPackedShapes("MatMulPackedBiasActParallelInto", dst, a, pb)
	checkBiasLen("MatMulPackedBiasActParallelInto", bias, pb.cols)
	matMulPackedRowsParallel(dst, a, pb, bias, act == ActReLU)
}

func matMulPackedRowsParallel(dst, a *Matrix, pb *PackedB, bias []float32, relu bool) {
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers <= 1 || a.Rows*a.Cols*pb.cols < 1<<16 {
		microkernel.MatMul(dst.Data, dst.Cols, 0, a.Data, a.Cols, 0, a.Rows, pb.data, pb.rows, pb.cols, bias, relu)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, a.Rows)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			microkernel.MatMul(dst.Data, dst.Cols, 0, a.Data, a.Cols, lo, hi, pb.data, pb.rows, pb.cols, bias, relu)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMulPackedColsBiasActInto computes act(a·B + bias) into the column
// window [dstLo, dstLo+B.Cols) of dst — the kernel one tensor-parallel
// shard of a dense-family layer runs on its packed weight slice. bias is
// window-relative (len == B.Cols) and may be nil; columns outside the
// window are untouched.
func MatMulPackedColsBiasActInto(dst *Matrix, dstLo int, a *Matrix, pb *PackedB, bias []float32, act Activation) {
	if a.Cols != pb.rows {
		panic(fmt.Sprintf("tensor: MatMulPackedColsBiasActInto shape mismatch (%d×%d)·packed(%d×%d)", a.Rows, a.Cols, pb.rows, pb.cols))
	}
	if dst.Rows != a.Rows || dstLo < 0 || dstLo+pb.cols > dst.Cols {
		panic(fmt.Sprintf("tensor: MatMulPackedColsBiasActInto window [%d,%d) does not fit %d×%d dst",
			dstLo, dstLo+pb.cols, dst.Rows, dst.Cols))
	}
	checkBiasLen("MatMulPackedColsBiasActInto", bias, pb.cols)
	microkernel.MatMul(dst.Data, dst.Cols, dstLo, a.Data, a.Cols, 0, a.Rows, pb.data, pb.rows, pb.cols, bias, act == ActReLU)
}
