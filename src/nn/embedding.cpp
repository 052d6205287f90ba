#include "src/nn/embedding.h"

#include "src/common/check.h"

namespace pf {

Embedding::Embedding(std::size_t vocab, std::size_t max_seq,
                     std::size_t d_model, Rng& rng, const std::string& name)
    : vocab_(vocab),
      max_seq_(max_seq),
      d_model_(d_model),
      tokens_(vocab, d_model, name + ".tokens"),
      positions_(max_seq, d_model, name + ".positions"),
      segments_(2, d_model, name + ".segments") {
  tokens_.w = Matrix::randn(vocab, d_model, rng, 0.02);
  positions_.w = Matrix::randn(max_seq, d_model, rng, 0.02);
  segments_.w = Matrix::randn(2, d_model, rng, 0.02);
}

Matrix Embedding::forward(const std::vector<int>& ids,
                          const std::vector<int>& segments, std::size_t batch,
                          std::size_t seq, bool training,
                          const ExecContext& ctx) {
  PF_CHECK(ids.size() == batch * seq);
  PF_CHECK(segments.size() == ids.size());
  PF_CHECK(seq <= max_seq_);
  PF_CHECK(tokens_.w.rows() == vocab_ && positions_.w.rows() == max_seq_ &&
           segments_.w.rows() == 2 && tokens_.w.cols() == d_model_ &&
           positions_.w.cols() == d_model_ && segments_.w.cols() == d_model_)
      << "embedding tables differ from " << vocab_ << "/" << max_seq_
      << "/2 rows x " << d_model_;
  Matrix out = Matrix::uninitialized(ids.size(), d_model_);
  // Token-parallel gather; the id/segment range checks ride inside the
  // chunks (parallel_for rethrows the first failure on the caller).
  ctx.parallel_for(ids.size(), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const int tok = ids[i];
      const int seg = segments[i];
      PF_CHECK(tok >= 0 && static_cast<std::size_t>(tok) < vocab_)
          << "token id " << tok << " out of vocab " << vocab_;
      PF_CHECK(seg == 0 || seg == 1);
      const double* t = tokens_.w.row(static_cast<std::size_t>(tok));
      const double* p = positions_.w.row(i % seq);
      const double* s = segments_.w.row(static_cast<std::size_t>(seg));
      double* o = out.row(i);
      for (std::size_t c = 0; c < d_model_; ++c) o[c] = t[c] + p[c] + s[c];
    }
  });
  if (training) {
    ids_cache_ = ids;
    seg_cache_ = segments;
    batch_cache_ = batch;
    seq_cache_ = seq;
  }
  return out;
}

void Embedding::backward(const Matrix& dy, const ExecContext& ctx) {
  PF_CHECK(!ids_cache_.empty()) << "backward before forward";
  PF_CHECK(dy.rows() == ids_cache_.size() && dy.cols() == d_model_);
  const std::size_t n = ids_cache_.size();
  // Owner-computes scatter over the concatenated row space
  // [0, vocab) ∪ [vocab, vocab+max_seq) ∪ [vocab+max_seq, +2): every shard
  // scans all tokens in ascending order and applies only the updates whose
  // destination row it owns, so each gradient coordinate accumulates in the
  // serial order no matter how many threads run (bitwise identical).
  const std::size_t pos0 = vocab_;
  const std::size_t seg0 = vocab_ + max_seq_;
  ctx.parallel_for(seg0 + 2, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto tok = static_cast<std::size_t>(ids_cache_[i]);
      const std::size_t pos = pos0 + i % seq_cache_;
      const auto seg = seg0 + static_cast<std::size_t>(seg_cache_[i]);
      const double* g = dy.row(i);
      if (tok >= r0 && tok < r1) {
        double* dst = tokens_.g.row(tok);
        for (std::size_t c = 0; c < d_model_; ++c) dst[c] += g[c];
      }
      if (pos >= r0 && pos < r1) {
        double* dst = positions_.g.row(pos - pos0);
        for (std::size_t c = 0; c < d_model_; ++c) dst[c] += g[c];
      }
      if (seg >= r0 && seg < r1) {
        double* dst = segments_.g.row(seg - seg0);
        for (std::size_t c = 0; c < d_model_; ++c) dst[c] += g[c];
      }
    }
  });
}

}  // namespace pf
