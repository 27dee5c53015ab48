// Package mathx provides the small dense linear-algebra and statistics
// kernels the COLAB reproduction needs: matrices, a Jacobi eigen-solver,
// principal component analysis, ordinary least squares, descriptive
// statistics and deterministic random number generation.
//
// The package exists because the speedup model of the paper (Table 2) is
// trained offline with PCA feature selection followed by linear regression,
// and the module must be self-contained (stdlib only).
package mathx

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mathx: invalid matrix dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// IsSymmetric reports whether the matrix is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%9.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SolveLinearSystem solves A x = b by Gaussian elimination with partial
// pivoting. A must be square; A and b are not modified. It returns an error
// when the system is singular to working precision.
func SolveLinearSystem(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mathx: SolveLinearSystem needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mathx: SolveLinearSystem rhs length %d, want %d", len(b), n)
	}
	aug := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)

	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in col.
		pivot := col
		maxAbs := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, fmt.Errorf("mathx: singular system (pivot %d ~ 0)", col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				vi, vp := aug.At(col, j), aug.At(pivot, j)
				aug.Set(col, j, vp)
				aug.Set(pivot, j, vi)
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		inv := 1 / aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				aug.Set(r, j, aug.At(r, j)-f*aug.At(col, j))
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
	}
	return x, nil
}
