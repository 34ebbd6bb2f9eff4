package sparse

import (
	"repro/internal/tensor"
)

// Block-specialized BSR×dense kernels behind MulDenseInto,
// MulDenseBiasActInto and MulDenseRowsInto. Structural sparsity lives at
// block granularity — absent blocks are never visited via RowPtr/ColIdx —
// while every scalar of a stored block contributes, zeros included, as in
// MulDense. Accumulation per output element is c-ascending with
// sequential adds, so results are bit-identical to MulDense.

// MicroVariant names the kernel variant the plan compiler stamps into
// step metadata for steps multiplying through this matrix.
func (b *BSR) MicroVariant() string {
	switch b.BlockSize {
	case 4:
		return "unroll4"
	case 8:
		return "unroll8"
	default:
		return "blocktiled"
	}
}

// mulDenseRows accumulates block rows [br0, br1) of b·x into out, whose
// row 0 is logical row br0·BlockSize; out must be zeroed. Each finished
// block row gets the bias (indexed by logical row; nil for none) and the
// activation while it is cache-hot.
func (b *BSR) mulDenseRows(out, x *tensor.Matrix, br0, br1 int, bias []float32, act tensor.Activation) {
	bs, k := b.BlockSize, x.Cols
	for bi := br0; bi < br1; bi++ {
		row0 := (bi - br0) * bs
		for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
			bj := int(b.ColIdx[p])
			blk := b.Block(int(p))
			switch bs {
			case 4:
				accBlock4(out, x, blk, row0, bj*4, k)
			case 8:
				accBlock8(out, x, blk, row0, bj*8, k)
			default:
				accBlockTiled(out, x, blk, row0, bj*bs, bs, k)
			}
		}
		if bias != nil || act != tensor.ActNone {
			for r := 0; r < bs; r++ {
				row := out.Row(row0 + r)
				if bias != nil {
					bv := bias[bi*bs+r]
					for j, v := range row {
						row[j] = act.Apply(v + bv)
					}
				} else {
					for j, v := range row {
						row[j] = act.Apply(v)
					}
				}
			}
		}
	}
}

// accBlock4 accumulates one stored 4×4 block: the four RHS rows are
// hoisted once per block and every output element gets its four
// contributions as sequential adds in c order.
func accBlock4(out, x *tensor.Matrix, blk []float32, row0, col0, k int) {
	x0 := x.Data[col0*k : col0*k+k]
	x1 := x.Data[(col0+1)*k : (col0+1)*k+k][:len(x0)]
	x2 := x.Data[(col0+2)*k : (col0+2)*k+k][:len(x0)]
	x3 := x.Data[(col0+3)*k : (col0+3)*k+k][:len(x0)]
	for r := 0; r < 4; r++ {
		v := blk[r*4 : r*4+4 : r*4+4]
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		orow := out.Row(row0 + r)[:len(x0)]
		for j, xv := range x0 {
			s := orow[j]
			s += v0 * xv
			s += v1 * x1[j]
			s += v2 * x2[j]
			s += v3 * x3[j]
			orow[j] = s
		}
	}
}

// accBlock8 is accBlock4 for 8×8 blocks.
func accBlock8(out, x *tensor.Matrix, blk []float32, row0, col0, k int) {
	x0 := x.Data[col0*k : col0*k+k]
	x1 := x.Data[(col0+1)*k : (col0+1)*k+k][:len(x0)]
	x2 := x.Data[(col0+2)*k : (col0+2)*k+k][:len(x0)]
	x3 := x.Data[(col0+3)*k : (col0+3)*k+k][:len(x0)]
	x4 := x.Data[(col0+4)*k : (col0+4)*k+k][:len(x0)]
	x5 := x.Data[(col0+5)*k : (col0+5)*k+k][:len(x0)]
	x6 := x.Data[(col0+6)*k : (col0+6)*k+k][:len(x0)]
	x7 := x.Data[(col0+7)*k : (col0+7)*k+k][:len(x0)]
	for r := 0; r < 8; r++ {
		v := blk[r*8 : r*8+8 : r*8+8]
		v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
		v4, v5, v6, v7 := v[4], v[5], v[6], v[7]
		orow := out.Row(row0 + r)[:len(x0)]
		for j, xv := range x0 {
			s := orow[j]
			s += v0 * xv
			s += v1 * x1[j]
			s += v2 * x2[j]
			s += v3 * x3[j]
			s += v4 * x4[j]
			s += v5 * x5[j]
			s += v6 * x6[j]
			s += v7 * x7[j]
			orow[j] = s
		}
	}
}

// accBlockTiled handles other block sizes: columns in tiles of four so
// each output element still receives sequential adds in c order, with a
// scalar tail for bs % 4.
func accBlockTiled(out, x *tensor.Matrix, blk []float32, row0, col0, bs, k int) {
	for r := 0; r < bs; r++ {
		orow := out.Row(row0 + r)
		c := 0
		for ; c+4 <= bs; c += 4 {
			v := blk[r*bs+c : r*bs+c+4 : r*bs+c+4]
			v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
			x0 := x.Data[(col0+c)*k : (col0+c)*k+k]
			x1 := x.Data[(col0+c+1)*k : (col0+c+1)*k+k][:len(x0)]
			x2 := x.Data[(col0+c+2)*k : (col0+c+2)*k+k][:len(x0)]
			x3 := x.Data[(col0+c+3)*k : (col0+c+3)*k+k][:len(x0)]
			op := orow[:len(x0)]
			for j, xv := range x0 {
				s := op[j]
				s += v0 * xv
				s += v1 * x1[j]
				s += v2 * x2[j]
				s += v3 * x3[j]
				op[j] = s
			}
		}
		for ; c < bs; c++ {
			v := blk[r*bs+c]
			xrow := x.Data[(col0+c)*k : (col0+c)*k+k]
			op := orow[:len(xrow)]
			for j, xv := range xrow {
				op[j] += v * xv
			}
		}
	}
}
