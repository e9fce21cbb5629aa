// Package featstore is the shared feature-sourcing plane: it answers "give
// me the raw input-feature rows for this frontier of global vertex IDs" for
// every subsystem that consumes vertex features — the serving engines
// (internal/serve) and the sampled mini-batch trainers (internal/minibatch)
// read features through the same three building blocks:
//
//   - a resident store (Local): the in-process fp32 feature matrix,
//     optionally fronted by a byte-budgeted LRU;
//   - an owner-split sharded store (Sharded): each rank materializes only
//     the feature rows of the vertices it owns, frontier positions owned by
//     peers become one batched halo fetch per owner rank over the
//     comm.ReqRep request/reply plane, and fetched rows land in a per-rank
//     sharded LRU (Cache) so repeat frontier traffic is absorbed locally;
//   - the Cache itself, the concurrency-safe byte-budgeted LRU promoted
//     from internal/cachesim, shared by both sources and reused by serve
//     for its embedding cache.
//
// The package exists so distributed training and distributed serving are
// the same code path (the ROADMAP's "billion-edge-scale training and
// serving" refactor): the sharded serving engine and the sharded sampled
// trainer differ only in what they do with the gathered rows. The contract
// every Source honors is exactness — a gather returns the same fp32 bits
// the resident matrix holds, regardless of which rank the row lives on,
// whether it was cached, or how the frontier was batched. That contract is
// what lets the cross-shard serving conformance harness and the
// distributed-minibatch conformance harness pin bit-identical results
// across 1/2/4 ranks and both comm fabrics.
package featstore

import "distgnn/internal/tensor"

// Source materializes the raw input-feature rows for a frontier of global
// vertex IDs: row i of the result is the feature vector of frontier[i].
// Implementations must be exact (fp32 bits identical to the backing store)
// and safe for concurrent use.
type Source interface {
	// Gather returns a freshly allocated |frontier|×Cols matrix whose row i
	// is the feature vector of global vertex frontier[i].
	Gather(frontier []int32) (*tensor.Matrix, error)
	// Cols returns the feature width.
	Cols() int
}
