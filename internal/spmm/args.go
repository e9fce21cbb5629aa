package spmm

import (
	"fmt"

	"distgnn/internal/graph"
	"distgnn/internal/tensor"
)

// Args bundles the operands of one aggregation-primitive invocation,
// mirroring the Require lines of Alg. 1: the adjacency in CSR form, the
// vertex feature matrix f_V (|V|×d), the optional edge feature matrix f_E
// (|E|×d, nil when ⊗ is unary on vertex features), the output f_O (|V|×d),
// and the (⊗, ⊕) operator pair.
type Args struct {
	G   *graph.CSR
	FV  *tensor.Matrix // vertex features, |V|×d; may be nil for OpCopyRHS
	FE  *tensor.Matrix // edge features, |E|×d; may be nil for OpCopyLHS
	FO  *tensor.Matrix // output, |V|×d
	Op  Op
	Red Reduce
}

// Validate checks operand shapes against the graph and operator form.
func (a *Args) Validate() error {
	if a.G == nil || a.FO == nil {
		return fmt.Errorf("spmm: graph and output are required")
	}
	d := a.FO.Cols
	if a.FO.Rows != a.G.NumVertices {
		return fmt.Errorf("spmm: output rows %d != vertices %d", a.FO.Rows, a.G.NumVertices)
	}
	needsFV := a.Op != OpCopyRHS
	needsFE := a.Op != OpCopyLHS
	if needsFV {
		if a.FV == nil {
			return fmt.Errorf("spmm: op %v requires vertex features", a.Op)
		}
		if a.FV.Rows != a.G.NumVertices || a.FV.Cols != d {
			return fmt.Errorf("spmm: vertex features %dx%d, want %dx%d",
				a.FV.Rows, a.FV.Cols, a.G.NumVertices, d)
		}
	}
	if needsFE {
		if a.FE == nil {
			return fmt.Errorf("spmm: op %v requires edge features", a.Op)
		}
		if a.FE.Rows != a.G.NumEdges || a.FE.Cols != d {
			return fmt.Errorf("spmm: edge features %dx%d, want %dx%d",
				a.FE.Rows, a.FE.Cols, a.G.NumEdges, d)
		}
	}
	if a.FV != nil && a.FO != nil && a.FV == a.FO {
		return fmt.Errorf("spmm: output must not alias vertex features")
	}
	return nil
}

// initOutput fills f_O with the reducer's identity so reduction starts from
// a neutral element (DGL zero-initializes for sum; max/min need ∓inf).
func (a *Args) initOutput() {
	a.FO.Fill(a.Red.Identity())
}

// finalizeEmpty rewrites rows of f_O that received no edges from the
// reducer identity back to 0, matching DGL's convention that isolated
// vertices aggregate to zero for max/min too.
func (a *Args) finalizeEmpty() {
	if a.Red == ReduceSum {
		return
	}
	id := a.Red.Identity()
	for v := 0; v < a.G.NumVertices; v++ {
		if a.G.InDegree(v) == 0 {
			row := a.FO.Row(v)
			for j := range row {
				if row[j] == id {
					row[j] = 0
				}
			}
		}
	}
}
