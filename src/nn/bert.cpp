#include "src/nn/bert.h"

#include "src/common/check.h"

namespace pf {

BertModel::BertModel(const BertConfig& cfg, Rng& rng)
    : cfg_(cfg),
      emb_(cfg.vocab, cfg.seq_len, cfg.d_model, rng, "embedding"),
      mlm_head_(cfg.d_model, cfg.vocab, rng, "mlm_head"),
      nsp_head_(cfg.d_model, 2, rng, "nsp_head") {
  for (std::size_t i = 0; i < cfg.n_layers; ++i)
    blocks_.emplace_back(cfg.d_model, cfg.d_ff, cfg.n_heads, rng,
                         "block" + std::to_string(i));
}

Matrix BertModel::encode(const BertBatch& batch, bool training,
                         const ExecContext& ctx) {
  PF_CHECK(batch.seq == cfg_.seq_len)
      << "batch seq " << batch.seq << " != config " << cfg_.seq_len;
  PF_CHECK(batch.ids.size() == batch.batch * batch.seq);
  last_batch_ = batch.batch;
  Matrix h = emb_.forward(batch.ids, batch.segments, batch.batch, batch.seq,
                          training, ctx);
  for (auto& block : blocks_)
    h = block.forward(std::move(h), batch.batch, batch.seq, training, ctx);
  return h;
}

Matrix gather_cls_rows(const Matrix& h, std::size_t batch, std::size_t seq) {
  Matrix cls(batch, h.cols());
  for (std::size_t b = 0; b < batch; ++b) {
    const double* row = h.row(b * seq);
    for (std::size_t c = 0; c < h.cols(); ++c) cls(b, c) = row[c];
  }
  return cls;
}

BertLossBreakdown BertModel::train_step_backward(const BertBatch& batch,
                                                 const ExecContext& ctx) {
  // The MLM head takes h over, and the heads their loss gradients; the
  // [CLS] rows are gathered from the MLM head's cache.
  const Matrix mlm_logits =
      mlm_head_.forward(encode(batch, /*training=*/true, ctx), true, ctx);
  auto mlm = softmax_cross_entropy(mlm_logits, batch.mlm_labels, ctx);

  const Matrix cls =
      gather_cls_rows(mlm_head_.cached_input(), batch.batch, batch.seq);
  const Matrix nsp_logits = nsp_head_.forward(cls, true, ctx);
  auto nsp = softmax_cross_entropy(nsp_logits, batch.nsp_labels, ctx);

  // Backward: dL/dh from both heads.
  Matrix dh = mlm_head_.backward(std::move(mlm.dlogits), ctx);
  const Matrix dcls = nsp_head_.backward(std::move(nsp.dlogits), ctx);
  for (std::size_t b = 0; b < batch.batch; ++b) {
    double* row = dh.row(b * batch.seq);
    for (std::size_t c = 0; c < dh.cols(); ++c) row[c] += dcls(b, c);
  }
  for (std::size_t i = blocks_.size(); i-- > 0;)
    dh = blocks_[i].backward(std::move(dh), ctx);
  emb_.backward(dh, ctx);

  return {mlm.loss + nsp.loss, mlm.loss, nsp.loss};
}

BertInferOutput BertModel::forward(const BertBatch& batch, bool training,
                                   const ExecContext& ctx) {
  const Matrix h = encode(batch, training, ctx);
  BertInferOutput out;
  out.mlm_logits = mlm_head_.forward(h, training, ctx);
  const Matrix cls = gather_cls_rows(h, batch.batch, batch.seq);
  out.nsp_logits = nsp_head_.forward(cls, training, ctx);
  return out;
}

std::vector<Param*> BertModel::params() {
  std::vector<Param*> out = emb_.params();
  for (auto& b : blocks_)
    for (Param* p : b.params()) out.push_back(p);
  for (Param* p : mlm_head_.params()) out.push_back(p);
  for (Param* p : nsp_head_.params()) out.push_back(p);
  return out;
}

std::vector<Linear*> BertModel::kfac_linears() {
  std::vector<Linear*> out;
  for (auto& b : blocks_)
    for (Linear* l : b.kfac_linears()) out.push_back(l);
  return out;
}

std::size_t BertModel::n_params() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->size();
  return n;
}

}  // namespace pf
