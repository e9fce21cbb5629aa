package featstore

import "distgnn/internal/tensor"

// Local is the single-process Source: every feature row is resident in this
// process as one fp32 matrix, optionally fronted by a byte-budgeted LRU.
// With the whole store resident the cache cannot beat a direct row copy —
// it is the stand-in for the remote/out-of-core feature fetch a deployment
// at real scale pays per miss (the paper's feature-locality cost; Sharded
// pays it for real over the comm fabric), and its hit/miss counters
// measure exactly the reuse such a tier would capture.
type Local struct {
	feats *tensor.Matrix
	cache *Cache[int32, []float32]
}

// NewLocal builds a Local source over a resident feature store. cache may
// be nil (no caching — every gather reads the store directly).
func NewLocal(feats *tensor.Matrix, cache *Cache[int32, []float32]) *Local {
	return &Local{feats: feats, cache: cache}
}

// Cols returns the feature width.
func (lf *Local) Cols() int { return lf.feats.Cols }

// CacheStats snapshots the front cache's counters (zero when disabled).
func (lf *Local) CacheStats() CacheStats { return lf.cache.Stats() }

// Gather materializes the frontier's feature rows, serving rows from the
// cache when resident. Cached rows are exact copies, so the gathered bits
// equal the store's regardless of cache state.
func (lf *Local) Gather(frontier []int32) (*tensor.Matrix, error) {
	x := tensor.New(len(frontier), lf.feats.Cols)
	for i, gv := range frontier {
		row := x.Row(i)
		if cached, ok := lf.cache.Get(gv); ok {
			copy(row, cached)
			continue
		}
		copy(row, lf.feats.Row(int(gv)))
		lf.cache.Put(gv, append([]float32(nil), row...), 4*len(row))
	}
	return x, nil
}
