#include "dp/allreduce.hpp"

#include <cstring>
#include <stdexcept>

#include "dp/reduce_kernels.hpp"

namespace agebo::dp {

namespace {

void reduce_all(std::vector<std::vector<float>*>& buffers,
                AllreduceStrategy strategy) {
  const std::size_t n = buffers.size();
  if (n == 1) return;
  const std::size_t len = buffers[0]->size();
  if (len == 0) return;

  const float* srcs[kernels::kMaxSources];
  for (std::size_t r = 0; r < n; ++r) srcs[r] = buffers[r]->data();
  const float inv_n = 1.0f / static_cast<float>(n);

  // Single-destination reduce into a reused scratch span, then one memcpy
  // per buffer: n + 1 streamed ops for the reduction and 2n for the
  // broadcast, versus ~5n for the historical accumulate-in-place loop.
  static thread_local std::vector<float> scratch;
  if (scratch.size() < len) scratch.resize(len);
  float* acc = scratch.data();

  switch (strategy) {
    case AllreduceStrategy::kFlat:
      // Linear left fold: the historical rank-0 accumulate order, bit for
      // bit.
      kernels::reduce_avg_linear_to(acc, srcs, n, 0, len, inv_n);
      break;
    case AllreduceStrategy::kTree:
      kernels::reduce_avg_tree_to(acc, srcs, n, 0, len, inv_n);
      break;
    case AllreduceStrategy::kRing: {
      // Reduce-scatter order: chunk c is summed starting from its ring
      // predecessor's contribution, exactly as rank c would accumulate it
      // in a real ring. Serial here; rank-parallel in gradient_comm.
      const float* rotated[kernels::kMaxSources];
      for (std::size_t c = 0; c < n; ++c) {
        const auto [begin, sz] = kernels::chunk_range(len, n, c);
        const std::size_t rot = (c + 1) % n;
        for (std::size_t j = 0; j < n; ++j) rotated[j] = srcs[(rot + j) % n];
        kernels::reduce_avg_linear_to(acc, rotated, n, begin, sz, inv_n);
      }
      break;
    }
    default:
      throw std::invalid_argument("allreduce: unknown strategy");
  }

  for (std::size_t r = 0; r < n; ++r) {
    std::memcpy(buffers[r]->data(), acc, len * sizeof(float));
  }
}

void validate(const std::vector<std::vector<float>*>& buffers) {
  if (buffers.empty()) throw std::invalid_argument("allreduce: no buffers");
  if (buffers.size() > kernels::kMaxSources) {
    throw std::invalid_argument("allreduce: too many buffers");
  }
  for (const auto* b : buffers) {
    if (b == nullptr) throw std::invalid_argument("allreduce: null buffer");
    if (b->size() != buffers[0]->size()) {
      throw std::invalid_argument("allreduce: size mismatch");
    }
  }
}

}  // namespace

void allreduce_average(std::vector<std::vector<float>*>& buffers,
                       AllreduceStrategy strategy) {
  validate(buffers);
  reduce_all(buffers, strategy);
}

}  // namespace agebo::dp
