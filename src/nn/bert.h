// Scaled-down BERT: embeddings → N encoder blocks → MLM head + NSP head.
//
// Matches the paper's training target structurally: the pretraining loss is
// masked-LM cross entropy plus next-sentence-prediction cross entropy, and
// K-FAC preconditions every encoder fully-connected layer but NOT the MLM
// classification head (whose d_out = vocab would make B_l huge — paper §4).
#pragma once

#include "src/nn/embedding.h"
#include "src/nn/loss.h"
#include "src/nn/transformer_block.h"

namespace pf {

struct BertConfig {
  std::size_t vocab = 68;
  std::size_t d_model = 32;
  std::size_t d_ff = 64;
  std::size_t n_heads = 4;
  std::size_t n_layers = 2;
  std::size_t seq_len = 16;
};

struct BertBatch {
  std::size_t batch = 0;
  std::size_t seq = 0;
  std::vector<int> ids;         // [batch·seq] input tokens (post-masking)
  std::vector<int> segments;    // [batch·seq] 0/1
  std::vector<int> mlm_labels;  // [batch·seq] original token or -1
  std::vector<int> nsp_labels;  // [batch] 1 = is-next, 0 = random
};

struct BertLossBreakdown {
  double total = 0.0;
  double mlm = 0.0;
  double nsp = 0.0;
};

// Head logits from an inference forward (BertModel::forward / the serving
// engine's per-request records).
struct BertInferOutput {
  Matrix mlm_logits;  // [batch·seq × vocab]
  Matrix nsp_logits;  // [batch × 2]
};

// The [CLS] rows of a [batch·seq × d] hidden-state tensor (row b·seq of
// each sequence) — the NSP head's input. Shared by the serial model and the
// last pipeline stage so both run the identical gather.
Matrix gather_cls_rows(const Matrix& h, std::size_t batch, std::size_t seq);

class BertModel {
 public:
  BertModel(const BertConfig& cfg, Rng& rng);

  // Forward + loss + backward (accumulates gradients). Returns the losses.
  // The context threads every layer loop and GEMM beneath; losses and
  // gradients are bitwise identical for every thread count (NnThreads
  // suite pins this end to end).
  BertLossBreakdown train_step_backward(
      const BertBatch& batch, const ExecContext& ctx = {});

  // Inference forward returning the head logits. With the default
  // `training=false` every layer skips its backward cache stash (no
  // backward is possible afterwards; peak memory stays at the activations
  // in flight — pinned by ServingInference.InferenceForwardLeavesNoCaches).
  // `training=true` leaves the caches populated for callers that want
  // logits and a backward. Labels in `batch` are ignored.
  BertInferOutput forward(const BertBatch& batch, bool training = false,
                          const ExecContext& ctx = {});

  std::vector<Param*> params();
  // The K-FAC-tracked linears: all encoder linears (6 per block). The MLM
  // and NSP heads are excluded, mirroring the paper.
  std::vector<Linear*> kfac_linears();

  const BertConfig& config() const { return cfg_; }
  std::size_t n_params();

  // Layer access for the pipeline stage partition (stage_partition.h),
  // which builds non-owning stage views over the same layer objects the
  // serial path trains — so pipeline and serial execution share weights,
  // gradients and optimizer state by construction.
  Embedding& embedding() { return emb_; }
  std::vector<TransformerBlock>& blocks() { return blocks_; }
  Linear& mlm_head() { return mlm_head_; }
  Linear& nsp_head() { return nsp_head_; }

 private:
  // Shared forward; returns hidden states [batch·seq × d_model].
  Matrix encode(const BertBatch& batch, bool training, const ExecContext& ctx);

  BertConfig cfg_;
  Embedding emb_;
  std::vector<TransformerBlock> blocks_;
  Linear mlm_head_;
  Linear nsp_head_;
  // Caches for backward.
  std::size_t last_batch_ = 0;
};

}  // namespace pf
