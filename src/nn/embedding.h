// Token + position + segment embeddings (BERT-style input layer).
//
// Excluded from K-FAC (like the paper, which preconditions only the
// fully-connected layers of the encoder blocks).
#pragma once

#include <cstdint>

#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/nn/param.h"

namespace pf {

class Embedding {
 public:
  Embedding(std::size_t vocab, std::size_t max_seq, std::size_t d_model,
            Rng& rng, const std::string& name);

  // ids/segments are [batch × seq] flattened row-major; output is
  // [batch·seq × d_model]. The gather is token-parallel over the context
  // (output rows are independent).
  Matrix forward(const std::vector<int>& ids, const std::vector<int>& segments,
                 std::size_t batch, std::size_t seq, bool training = true,
                 const ExecContext& ctx = {});
  // Scatter-adds gradients into the tables. Owner-computes sharding: the
  // concatenated table rows [tokens | positions | segments] are split
  // contiguously across threads and every shard scans the tokens in
  // ascending order, applying only the updates landing in its rows — each
  // table coordinate sees the serial accumulation order at every thread
  // count (bitwise identical; see exec_context.h).
  void backward(const Matrix& dy, const ExecContext& ctx = {});

  std::vector<Param*> params() { return {&tokens_, &positions_, &segments_}; }
  std::size_t d_model() const { return d_model_; }

  // Cache externalization for pipeline stages (see linear.h).
  struct Cache {
    std::vector<int> ids, segments;
    std::size_t batch = 0, seq = 0;
  };
  Cache save_cache() {
    Cache c{std::move(ids_cache_), std::move(seg_cache_), batch_cache_,
            seq_cache_};
    ids_cache_.clear();
    seg_cache_.clear();
    return c;
  }
  void restore_cache(Cache&& c) {
    ids_cache_ = std::move(c.ids);
    seg_cache_ = std::move(c.segments);
    batch_cache_ = c.batch;
    seq_cache_ = c.seq;
  }

 private:
  std::size_t vocab_, max_seq_, d_model_;
  Param tokens_;     // [vocab × d]
  Param positions_;  // [max_seq × d]
  Param segments_;   // [2 × d]
  std::vector<int> ids_cache_, seg_cache_;
  std::size_t batch_cache_ = 0, seq_cache_ = 0;
};

}  // namespace pf
