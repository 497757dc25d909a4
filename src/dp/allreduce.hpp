// Gradient allreduce for synchronous data-parallel training (the Horovod
// role in the paper). Every participating buffer ends up holding the
// element-wise average of all buffers. Three strategies:
//  - kFlat: rank-0 accumulates everything then broadcasts (O(n) depth).
//  - kTree: pairwise binary reduction then broadcast down (O(log n) depth).
//  - kRing: chunked reduce-scatter + allgather — each of the n chunks is
//    reduced independently in rotated ring order, the shape real
//    bandwidth-optimal allreduce implementations use. In the trainer the
//    chunks are reduced *concurrently* by the replica threads themselves
//    (see gradient_comm.hpp); this serial entry point applies the same
//    chunking and summation order on one thread.
//
// Determinism: for a fixed (strategy, buffer count), the element-wise
// summation order is a pure function of the element index — it never
// depends on thread scheduling — and every buffer receives the same bits.
// Different strategies (and different counts) round differently, so
// cross-strategy comparisons need a tolerance; but any single strategy is
// bit-reproducible run to run, which is what keeps the trainer's replicas
// in exact bitwise lockstep (max_replica_divergence() == 0.0f).
//
// Elastic reconfiguration (DESIGN.md §16) leans on the "pure function of
// the buffer count" property: after replicas are lost, the survivors build
// a fresh schedule over the new count n', and from that step on every
// reduction rounds exactly like a fresh n'-replica run — the foundation of
// the bit-identical fresh-run equivalence gated in ctest -L dp.
#pragma once

#include <cstddef>
#include <vector>

namespace agebo::dp {

enum class AllreduceStrategy { kFlat, kTree, kRing };

/// Average `buffers` element-wise on the calling thread; all buffers
/// receive the result. Throws std::invalid_argument unless all buffers are
/// non-null and equally sized. The trainer does not call this: it reduces
/// through GradientComm (gradient_comm.hpp), which reproduces these
/// summation orders rank-parallel. This is the serial reference the dp and
/// property tests compare it against.
void allreduce_average(std::vector<std::vector<float>*>& buffers,
                       AllreduceStrategy strategy = AllreduceStrategy::kFlat);

}  // namespace agebo::dp
