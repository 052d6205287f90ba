#include "src/nn/stage_partition.h"

#include <utility>

#include "src/common/check.h"

namespace pf {

namespace {
std::size_t mat_bytes(const Matrix& m) { return m.size() * sizeof(double); }
std::size_t lin_bytes(const Linear::Cache& c) {
  return mat_bytes(c.x) + mat_bytes(c.dy);
}
}  // namespace

void BertStage::begin_step(StashReaders readers) {
  fwd_stash_.clear();
  kfac_stash_.clear();
  loss_stash_.clear();
  stash_bytes_ = 0;
  peak_stash_bytes_ = 0;
  readers_ = readers;
}

void BertStage::end_step() {
  PF_CHECK(fwd_stash_.empty())
      << "stage " << index_ << " micro " << fwd_stash_.begin()->first
      << ": the forward stash outlived its step (its backward never ran)";
  for (const auto& [micro, e] : kfac_stash_) {
    for (std::size_t b = 0; b < e.reads.size(); ++b)
      PF_CHECK(e.reads[b] == 0)
          << "stage " << index_ << " micro " << micro << ": factor " << b / 2
          << " (" << linear_at(b / 2)->name() << ") "
          << (b % 2 == 0 ? "a_l" : "e_l") << " outlived its step: "
          << int{e.reads[b]} << " planned read(s) never ran"
          << (e.weight_pass ? ", the W pass among them" : "");
    PF_CHECK(!e.weight_pass) << "stage " << index_ << " micro " << micro
                             << ": the K-FAC stash outlived its step (its "
                                "W pass never ran)";
  }
  loss_stash_.clear();
}

Matrix BertStage::forward(int micro, const BertBatch& batch, Matrix in,
                          const ExecContext& ctx) {
  PF_CHECK(!fwd_stash_.contains(micro) && !kfac_stash_.contains(micro))
      << "stage " << index_ << ": duplicate forward for micro " << micro;
  Matrix h;
  if (is_first()) {
    PF_CHECK(in.empty()) << "stage 0 takes its input from the batch";
    h = emb_->forward(batch.ids, batch.segments, batch.batch, batch.seq,
                      /*training=*/true, ctx);
  } else {
    PF_CHECK(!in.empty()) << "stage " << index_ << ": missing boundary input";
    h = std::move(in);
  }
  for (TransformerBlock* b : blocks_)
    h = b->forward(std::move(h), batch.batch, batch.seq, /*training=*/true,
                   ctx);

  Matrix mlm_dlogits, nsp_dlogits;
  if (is_last()) {
    // Identical op sequence to BertModel::train_step_backward's head/loss
    // section — the bitwise contract depends on it. The MLM head takes h
    // over, so the step ends here with no boundary activation; the [CLS]
    // rows are gathered from its cache. The logits die with the loss call.
    auto mlm = softmax_cross_entropy(
        mlm_head_->forward(std::move(h), true, ctx), batch.mlm_labels, ctx);
    const Matrix cls =
        gather_cls_rows(mlm_head_->cached_input(), batch.batch, batch.seq);
    auto nsp = softmax_cross_entropy(
        nsp_head_->forward(cls, /*training=*/true, ctx), batch.nsp_labels,
        ctx);
    loss_stash_[micro] = {mlm.loss + nsp.loss, mlm.loss, nsp.loss};
    mlm_dlogits = std::move(mlm.dlogits);
    nsp_dlogits = std::move(nsp.dlogits);
  }

  StageCache sc = save_caches();
  sc.mlm_dlogits = std::move(mlm_dlogits);
  sc.nsp_dlogits = std::move(nsp_dlogits);
  stash_add(bytes_of(sc));
  fwd_stash_.emplace(micro, std::move(sc));

  // The micro's planned reads: curvature A of each input owner's a_l and
  // B of every e_l, and the W pass of every a_l and e_l it reads — the
  // heads' included.
  const int per_factor = int{readers_.curvature} + int{readers_.weight_pass};
  if (per_factor > 0) {
    const std::size_t n_tracked = kfac_linears_.size();
    const std::size_t n =
        n_tracked + (readers_.weight_pass && is_last() ? 2 : 0);
    KfacEntry e;
    e.caches.resize(n);
    e.reads.assign(2 * n, 1);
    for (std::size_t f = 0; f < n_tracked; ++f) {
      const bool owns_input = kfac_input_owners_[f] == f;
      e.reads[2 * f] = static_cast<std::uint8_t>(owns_input ? per_factor : 0);
      e.reads[2 * f + 1] = static_cast<std::uint8_t>(per_factor);
    }
    e.weight_pass = readers_.weight_pass;
    kfac_stash_.emplace(micro, std::move(e));
  }
  return h;
}

Matrix BertStage::infer(const BertBatch& batch, Matrix in,
                        const ExecContext& ctx, BertInferOutput* out) const {
  Matrix h;
  if (is_first()) {
    PF_CHECK(in.empty()) << "stage 0 takes its input from the batch";
    h = emb_->forward(batch.ids, batch.segments, batch.batch, batch.seq,
                      /*training=*/false, ctx);
  } else {
    PF_CHECK(!in.empty()) << "stage " << index_ << ": missing boundary input";
    h = std::move(in);
  }
  for (TransformerBlock* b : blocks_)
    h = b->forward(std::move(h), batch.batch, batch.seq, /*training=*/false,
                   ctx);

  if (!is_last()) return h;

  // Identical head op sequence to BertModel::forward — the serving
  // engine's bitwise serial-equivalence contract depends on it.
  PF_CHECK(out != nullptr)
      << "stage " << index_ << " is the last stage; infer() needs an output";
  out->mlm_logits = mlm_head_->forward(h, /*training=*/false, ctx);
  const Matrix cls = gather_cls_rows(h, batch.batch, batch.seq);
  out->nsp_logits = nsp_head_->forward(cls, /*training=*/false, ctx);
  return Matrix();
}

Matrix BertStage::backward(int micro, const BertBatch& batch, Matrix grad_in,
                           const ExecContext& ctx) {
  const auto it = fwd_stash_.find(micro);
  PF_CHECK(it != fwd_stash_.end())
      << "stage " << index_ << ": backward(" << micro
      << ") without a stashed forward";

  // MOVE the whole cache set back into the layers and drop the entry.
  // Backward reads but never mutates a_l, so the buffers survive the round
  // trip bit for bit and are re-harvested below for their readers. What an
  // earlier backward left in the layers is freed as the micro's caches
  // replace it. Loss gradients live outside the layer caches: they are the
  // only thing left of the entry once the layers take their caches back,
  // and the heads take them over as their output-gradient caches.
  StageCache sc = std::move(it->second);
  stash_sub(bytes_of(sc));
  fwd_stash_.erase(it);
  Matrix mlm_dlogits = std::move(sc.mlm_dlogits);
  Matrix nsp_dlogits = std::move(sc.nsp_dlogits);
  restore_caches(std::move(sc));

  const bool defer_dw = readers_.weight_pass;
  Matrix dh;
  if (is_last()) {
    const auto back = [&](Linear* l, Matrix&& g) {
      return defer_dw ? l->backward_dx(std::move(g), ctx)
                      : l->backward(std::move(g), ctx);
    };
    dh = back(mlm_head_, std::move(mlm_dlogits));
    const Matrix dcls = back(nsp_head_, std::move(nsp_dlogits));
    for (std::size_t b = 0; b < batch.batch; ++b) {
      double* row = dh.row(b * batch.seq);
      for (std::size_t c = 0; c < dh.cols(); ++c) row[c] += dcls(b, c);
    }
  } else {
    PF_CHECK(!grad_in.empty())
        << "stage " << index_ << ": missing boundary gradient";
    dh = std::move(grad_in);
  }
  for (std::size_t i = blocks_.size(); i-- > 0;)
    dh = blocks_[i]->backward(std::move(dh), ctx, defer_dw);
  if (is_first()) {
    emb_->backward(dh, ctx);
    dh = Matrix();
  }

  // Every linear's {a_l, e_l} leaves its layer here: a buffer a planned
  // reader still reads moves into the micro's K-FAC entry; the rest dies —
  // a_l that a curvature-A task read from the forward stash with no W pass
  // to follow, and every buffer of a step that plans no reader — so no
  // later forward stashes this micro's e_l with its own caches.
  const auto kt = kfac_stash_.find(micro);
  KfacEntry* e = kt != kfac_stash_.end() ? &kt->second : nullptr;
  const std::size_t n_linears = kfac_linears_.size() + (is_last() ? 2 : 0);
  for (std::size_t i = 0; i < n_linears; ++i) {
    Linear::Cache c = linear_at(i)->save_cache();
    if (e == nullptr || i >= e->caches.size()) continue;
    if (e->reads[2 * i] > 0) {
      stash_add(mat_bytes(c.x));
      e->caches[i].x = std::move(c.x);
    }
    if (e->reads[2 * i + 1] > 0) {
      stash_add(mat_bytes(c.dy));
      e->caches[i].dy = std::move(c.dy);
    }
  }
  return dh;
}

void BertStage::backward_dw(int micro, const ExecContext& ctx) {
  const auto it = kfac_stash_.find(micro);
  PF_CHECK(it != kfac_stash_.end() && it->second.weight_pass &&
           !fwd_stash_.contains(micro))
      << "stage " << index_ << ": backward_dw(" << micro
      << ") without a deferred backward";
  KfacEntry& e = it->second;
  // Within one micro the per-linear order is irrelevant to the bitwise
  // contract (each dW touches its own Param), but keep it deterministic:
  // tracked linears in kfac_linears() order, then the heads. A linear that
  // reads another's input reads its owner's stashed x.
  const std::size_t n_tracked = kfac_linears_.size();
  for (std::size_t f = 0; f < n_tracked; ++f)
    kfac_linears_[f]->backward_dw(e.caches[kfac_input_owners_[f]].x,
                                  e.caches[f].dy, ctx);
  for (std::size_t i = n_tracked; i < e.caches.size(); ++i)
    linear_at(i)->backward_dw(e.caches[i], ctx);
  e.weight_pass = false;
  for (std::size_t i = 0; i < e.caches.size(); ++i) {
    if (i >= n_tracked || kfac_input_owners_[i] == i)
      drop_read(e, micro, 2 * i);
    drop_read(e, micro, 2 * i + 1);
  }
  erase_if_read(it);
}

BertLossBreakdown BertStage::losses(int micro) const {
  PF_CHECK(is_last()) << "losses live on the last stage";
  const auto it = loss_stash_.find(micro);
  PF_CHECK(it != loss_stash_.end())
      << "losses(" << micro << ") before its forward";
  return it->second;
}

const Matrix& BertStage::kfac_input(int micro, std::size_t f) const {
  // Before the micro's backward a_l lives in the forward stash; after it
  // in the harvested K-FAC stash. Both serve the same bytes: the input
  // owner's.
  PF_CHECK(f < kfac_linears_.size());
  f = kfac_input_owners_[f];
  const auto it = fwd_stash_.find(micro);
  if (it != fwd_stash_.end()) {
    const Matrix& x = kfac_cache_of(it->second, f).x;
    PF_CHECK(!x.empty());
    return x;
  }
  const auto kt = kfac_stash_.find(micro);
  PF_CHECK(kt != kfac_stash_.end() && !kt->second.caches[f].x.empty())
      << "stage " << index_ << ": kfac_input(" << micro << ", " << f
      << ") before its forward or after its last planned reader";
  return kt->second.caches[f].x;
}

const Matrix& BertStage::kfac_output_grad(int micro, std::size_t f) const {
  PF_CHECK(f < kfac_linears_.size());
  const auto it = kfac_stash_.find(micro);
  PF_CHECK(it != kfac_stash_.end() && !fwd_stash_.contains(micro) &&
           !it->second.caches[f].dy.empty())
      << "stage " << index_ << ": kfac_output_grad(" << micro << ", " << f
      << ") before its backward or after its last planned reader";
  return it->second.caches[f].dy;
}

void BertStage::kfac_input_done(int micro, std::size_t f) {
  curvature_read_done(micro, f, 2 * f);
}

void BertStage::kfac_output_grad_done(int micro, std::size_t f) {
  curvature_read_done(micro, f, 2 * f + 1);
}

void BertStage::curvature_read_done(int micro, std::size_t f,
                                    std::size_t b) {
  const auto it = kfac_stash_.find(micro);
  PF_CHECK(it != kfac_stash_.end() && f < kfac_linears_.size())
      << "stage " << index_ << ": no planned read of micro " << micro
      << " factor " << f;
  drop_read(it->second, micro, b);
  erase_if_read(it);
}

void BertStage::drop_read(KfacEntry& e, int micro, std::size_t b) {
  PF_CHECK(e.reads[b] > 0) << "stage " << index_ << " micro " << micro
                           << ": factor " << b / 2 << " ("
                           << linear_at(b / 2)->name() << ") "
                           << (b % 2 == 0 ? "a_l" : "e_l")
                           << " has no planned read left";
  if (--e.reads[b] > 0) return;
  Linear::Cache& c = e.caches[b / 2];
  Matrix& m = b % 2 == 0 ? c.x : c.dy;
  stash_sub(mat_bytes(m));
  m = Matrix();
}

void BertStage::erase_if_read(KfacStash::iterator it) {
  const KfacEntry& e = it->second;
  if (e.weight_pass) return;
  for (const std::uint8_t r : e.reads)
    if (r > 0) return;
  kfac_stash_.erase(it);
}

Linear* BertStage::linear_at(std::size_t i) const {
  if (i < kfac_linears_.size()) return kfac_linears_[i];
  PF_CHECK(is_last() && i < kfac_linears_.size() + 2);
  return i == kfac_linears_.size() ? mlm_head_ : nsp_head_;
}

std::vector<Param*> BertStage::params() const {
  std::vector<Param*> out;
  if (emb_ != nullptr)
    for (Param* p : emb_->params()) out.push_back(p);
  for (TransformerBlock* b : blocks_)
    for (Param* p : b->params()) out.push_back(p);
  if (mlm_head_ != nullptr)
    for (Param* p : mlm_head_->params()) out.push_back(p);
  if (nsp_head_ != nullptr)
    for (Param* p : nsp_head_->params()) out.push_back(p);
  return out;
}

BertStage::StageCache BertStage::save_caches() {
  StageCache c;
  if (emb_ != nullptr) c.emb = emb_->save_cache();
  c.blocks.reserve(blocks_.size());
  for (TransformerBlock* b : blocks_) c.blocks.push_back(b->save_cache());
  if (mlm_head_ != nullptr) c.mlm_head = mlm_head_->save_cache();
  if (nsp_head_ != nullptr) c.nsp_head = nsp_head_->save_cache();
  return c;
}

void BertStage::restore_caches(StageCache&& c) {
  if (emb_ != nullptr) emb_->restore_cache(std::move(c.emb));
  PF_CHECK(c.blocks.size() == blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i)
    blocks_[i]->restore_cache(std::move(c.blocks[i]));
  if (mlm_head_ != nullptr) mlm_head_->restore_cache(std::move(c.mlm_head));
  if (nsp_head_ != nullptr) nsp_head_->restore_cache(std::move(c.nsp_head));
}

std::size_t BertStage::bytes_of(const StageCache& c) {
  std::size_t n = (c.emb.ids.size() + c.emb.segments.size()) * sizeof(int);
  for (const TransformerBlock::Cache& bc : c.blocks) {
    n += mat_bytes(bc.attn.q) + mat_bytes(bc.attn.k) + mat_bytes(bc.attn.v);
    for (const Matrix& p : bc.attn.probs) n += mat_bytes(p);
    n += lin_bytes(bc.attn.wq) + lin_bytes(bc.attn.wk) +
         lin_bytes(bc.attn.wv) + lin_bytes(bc.attn.wo);
    n += mat_bytes(bc.ln1.xhat) + mat_bytes(bc.ln1.inv_std);
    n += mat_bytes(bc.ln2.xhat) + mat_bytes(bc.ln2.inv_std);
    n += lin_bytes(bc.w1) + lin_bytes(bc.w2) + mat_bytes(bc.gelu.dydx);
  }
  n += lin_bytes(c.mlm_head) + lin_bytes(c.nsp_head);
  n += mat_bytes(c.mlm_dlogits) + mat_bytes(c.nsp_dlogits);
  return n;
}

void BertStage::stash_add(std::size_t bytes) {
  stash_bytes_ += bytes;
  if (stash_bytes_ > peak_stash_bytes_) peak_stash_bytes_ = stash_bytes_;
}

void BertStage::stash_sub(std::size_t bytes) {
  PF_CHECK(bytes <= stash_bytes_);
  stash_bytes_ -= bytes;
}

const Linear::Cache& BertStage::kfac_cache_of(const StageCache& c,
                                              std::size_t f) const {
  // kfac_linears() order: per block wq, wk, wv, wo, w1, w2 (see
  // TransformerBlock::kfac_linears).
  PF_CHECK(f < kfac_linears_.size());
  const std::size_t blk = f / 6;
  const auto& bc = c.blocks[blk];
  switch (f % 6) {
    case 0: return bc.attn.wq;
    case 1: return bc.attn.wk;
    case 2: return bc.attn.wv;
    case 3: return bc.attn.wo;
    case 4: return bc.w1;
    default: return bc.w2;
  }
}

BertStagePartition::BertStagePartition(BertModel& model, int n_stages) {
  PF_CHECK(n_stages >= 1);
  auto& blocks = model.blocks();
  const std::size_t L = blocks.size();
  const auto S = static_cast<std::size_t>(n_stages);
  stages_.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    BertStage& st = stages_[s];
    st.index_ = static_cast<int>(s);
    // Contiguous even split; shallow models may leave middle stages
    // block-less (pure relays) — legal, if pointless beyond testing.
    const std::size_t lo = s * L / S;
    const std::size_t hi = (s + 1) * L / S;
    for (std::size_t i = lo; i < hi; ++i) st.blocks_.push_back(&blocks[i]);
    if (s == 0) st.emb_ = &model.embedding();
    if (s + 1 == S) {
      st.mlm_head_ = &model.mlm_head();
      st.nsp_head_ = &model.nsp_head();
    }
    for (TransformerBlock* b : st.blocks_) {
      // kfac_cache_of hard-codes the 6-linears-per-block layout (wq, wk,
      // wv, wo, w1, w2); fail loudly if TransformerBlock's tracked set
      // ever changes instead of silently mapping factors to the wrong
      // caches.
      PF_CHECK(b->kfac_linears().size() == 6)
          << "kfac_cache_of assumes 6 K-FAC linears per block, got "
          << b->kfac_linears().size();
      for (Linear* l : b->kfac_linears()) st.kfac_linears_.push_back(l);
    }
    st.kfac_input_owners_ = input_owners(st.kfac_linears_);
  }
}

BertStage& BertStagePartition::stage(int s) {
  PF_CHECK(s >= 0 && s < n_stages());
  return stages_[static_cast<std::size_t>(s)];
}

const BertStage& BertStagePartition::stage(int s) const {
  PF_CHECK(s >= 0 && s < n_stages());
  return stages_[static_cast<std::size_t>(s)];
}

}  // namespace pf
