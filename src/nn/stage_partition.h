// Pipeline-stage partition of a BertModel (paper §2: "the model is
// partitioned into D stages, one per device").
//
// BertStagePartition cuts an existing model into `n_stages` contiguous
// stage views — stage 0 additionally owns the embedding, the last stage
// the MLM/NSP heads and the loss; encoder blocks are distributed evenly
// (stages may own zero blocks on very shallow models, becoming pure
// relays). The views are NON-owning: pipeline execution trains the same
// Param objects the serial path trains, which is what makes the
// bitwise-equality contract of the pipeline runtime meaningful.
//
// Multi-micro-batch execution: a pipeline keeps several micro-batches in
// flight per stage, but every nn layer holds exactly one backward cache.
// Each stage therefore stashes its layers' caches per micro-batch
// (Layer::save_cache / restore_cache, see linear.h). Stash traffic is
// move/borrow, never copy — restore_cache takes only rvalues — and so are
// the cache fills: the blocks hand each activation and gradient a linear
// caches over to it (transformer_block.h), and the stage hands the boundary
// input to the first block and the loss gradients to the heads:
//
//   forward(m):  run layer forwards, then MOVE the fresh caches into
//                fwd_stash[m]. The stash is immutable while it exists —
//                K-FAC curvature-A tasks read a_l from it as soon as the
//                forward is done (the paper's readiness rule 1).
//   backward(m): MOVE fwd_stash[m] back into the layers (the entry is
//                erased), run backwards, then harvest exactly what K-FAC
//                reads — each tracked linear's {a_l, e_l} pair — into
//                kfac_stash[m]. The borrow round trip preserves the exact
//                buffers (backward reads but never mutates a_l), so a
//                curvature-A task that runs after the backward sees a_l
//                bit for bit. Everything else the forward stashed returns
//                to the layers, where the next forward reuses the storage
//                — peak stash bytes stay O(in-flight micros) +
//                O(n_micro) · |{a_l, e_l}| instead of O(n_micro) full
//                activation sets. What an earlier backward left in the
//                layers is freed as the micro's own caches move in.
//
// Storage: a stash entry, a layer cache or a temporary frees its buffers
// when it dies, and Matrix's storage pool (linalg/matrix.h) hands them to
// the next allocation of the same size, so a stage's steady-state steps
// recycle storage with no hand-back here.
//
// Shared inputs: attention's wk and wv read wq's input (Linear::
// read_input_of), so every stash holds that input once per block and
// micro — in wq's cache; wk's and wv's entries carry their e_l only.
// kfac_input() and the deferred W pass resolve such a linear to its input
// owner through kfac_input_owners().
//
// Gradients accumulate directly into the shared Param.g, so the caller
// (the pipeline runtime) must order each stage's backwards by ascending
// global micro id — then every gradient coordinate receives its additions
// in exactly the serial trainer's order, making the whole run bitwise
// identical to `Trainer` with accumulation_steps = n_micro.
//
// Thread safety: a stage object is NOT internally synchronized. The
// runtime serializes all ops (and stash-reading K-FAC tasks) of one stage
// through a TaskExecutor resource token; Chimera maps one model stage onto
// two devices, which is where the token actually bites.
#pragma once

#include <map>

#include "src/nn/bert.h"

namespace pf {

class BertStage {
 public:
  // Per-micro forward. `in` is the boundary activation from stage s-1
  // (ignored by stage 0, which reads the batch); returns the boundary
  // activation for stage s+1 (empty for the last stage, which instead
  // records the per-micro losses). Training mode is implied.
  Matrix forward(int micro, const BertBatch& batch, Matrix in,
                 const ExecContext& ctx);

  // Inference-mode forward: the same op sequence as forward() with
  // training=false everywhere and NO stash writes — an unbounded micro
  // stream can flow through the stage without clear_stash() and without
  // growing memory (the serving engine's path). Non-last stages return the
  // boundary activation for stage s+1; the last stage fills `out` (required
  // there, ignored elsewhere) and returns an empty Matrix. Labels in
  // `batch` are never read.
  Matrix infer(const BertBatch& batch, Matrix in, const ExecContext& ctx,
               BertInferOutput* out = nullptr) const;

  // Per-micro backward. `grad_in` is d(out) from stage s+1 (ignored by the
  // last stage, whose gradient starts at its own losses); returns d(in)
  // for stage s-1 (empty for stage 0, which ends at the embedding
  // scatter). Must be called after this micro's forward; the runtime
  // orders calls by ascending micro (see file comment).
  // `keep_kfac_stash`: when false (no curvature task will read this
  // micro — LAMB-only runs, non-refresh steps) the micro's stashes are
  // dropped here instead of held to end of step, keeping peak activation
  // memory at O(in-flight micros) rather than O(n_micro).
  // `defer_dw` (zero-bubble B pass): every Linear in the stage — the six
  // tracked per block plus the heads — runs backward_dx instead of
  // backward, and its {a_l, e_l} pair is harvested into the K-FAC stash
  // (head caches appended after the tracked indices) regardless of
  // keep_kfac_stash. The dW GEMMs then run in backward_dw(micro), which
  // the runtime chains per stage by ascending micro so each weight
  // coordinate accumulates in the serial trainer's order. Embedding,
  // LayerNorm and bias grads are cheap and stay here on the critical
  // path.
  Matrix backward(int micro, const BertBatch& batch, Matrix grad_in,
                  const ExecContext& ctx, bool keep_kfac_stash = true,
                  bool defer_dw = false);

  // Zero-bubble W pass for one micro: dW += a_lᵀ·e_l for every Linear
  // whose GEMM backward(defer_dw=true) deferred, reading the harvested
  // caches. `release` drops the micro's stash afterwards — pass false when
  // curvature tasks still read it this step. Same thread-safety rule as
  // backward: the runtime serializes this with the stage's other work
  // through the stage resource token.
  void backward_dw(int micro, const ExecContext& ctx, bool release);

  // Last stage only: the losses recorded by forward(micro).
  BertLossBreakdown losses(int micro) const;

  // Stashed K-FAC tensors of one micro for factor (linear) index f in
  // kfac_linears() order: a_l after forward(micro) (served from fwd_stash
  // before the micro's backward, from kfac_stash after it; the input
  // owner's buffer), e_l after backward(micro).
  const Matrix& kfac_input(int micro, std::size_t f) const;
  const Matrix& kfac_output_grad(int micro, std::size_t f) const;

  // Releases all per-micro stashes (end of step).
  void clear_stash();

  // --- Stash telemetry ---------------------------------------------------
  // Bytes currently held by this stage's per-micro stashes (fwd + kfac) and
  // the high-water mark since reset_stash_stats(). Counts matrix/vector
  // payloads, not map overhead. Read between steps.
  std::size_t stash_bytes() const { return stash_bytes_; }
  std::size_t peak_stash_bytes() const { return peak_stash_bytes_; }
  void reset_stash_stats() { peak_stash_bytes_ = stash_bytes_; }

  std::vector<Param*> params() const;
  std::vector<Linear*> kfac_linears() const { return kfac_linears_; }
  // input_owners(kfac_linears()): per factor, the factor whose input it
  // reads.
  const std::vector<std::size_t>& kfac_input_owners() const {
    return kfac_input_owners_;
  }

  int index() const { return index_; }
  bool is_first() const { return emb_ != nullptr; }
  bool is_last() const { return mlm_head_ != nullptr; }
  std::size_t n_blocks() const { return blocks_.size(); }

 private:
  friend class BertStagePartition;

  struct StageCache {
    Embedding::Cache emb;                       // stage 0 only
    std::vector<TransformerBlock::Cache> blocks;
    Linear::Cache mlm_head, nsp_head;           // last stage only
    Matrix mlm_dlogits, nsp_dlogits;            // loss grads (last stage)
  };

  StageCache save_caches();
  void restore_caches(StageCache&& c);
  const Linear::Cache& kfac_cache_of(const StageCache& c,
                                     std::size_t f) const;

  static std::size_t bytes_of(const StageCache& c);
  static std::size_t bytes_of(const std::vector<Linear::Cache>& kcs);
  void stash_add(std::size_t bytes);
  void stash_sub(std::size_t bytes);

  int index_ = 0;
  Embedding* emb_ = nullptr;       // stage 0
  std::vector<TransformerBlock*> blocks_;
  Linear* mlm_head_ = nullptr;     // last stage
  Linear* nsp_head_ = nullptr;
  std::vector<Linear*> kfac_linears_;
  std::vector<std::size_t> kfac_input_owners_;
  std::map<int, StageCache> fwd_stash_;
  // What K-FAC reads, harvested at backward in kfac_linears() order: a_l
  // and e_l of each tracked linear. Stashing the full cache set again would
  // hold every forward activation twice until end of step.
  std::map<int, std::vector<Linear::Cache>> kfac_stash_;
  // Losses live outside the cache stash: they survive a dropped stash
  // (keep_kfac_stash = false) until the step's loss fold reads them.
  std::map<int, BertLossBreakdown> loss_stash_;
  std::size_t stash_bytes_ = 0;
  std::size_t peak_stash_bytes_ = 0;
};

class BertStagePartition {
 public:
  // Cuts `model` into n_stages contiguous stages (n_stages >= 1). The
  // partition keeps pointers into the model; the model must outlive it.
  BertStagePartition(BertModel& model, int n_stages);

  int n_stages() const { return static_cast<int>(stages_.size()); }
  // The stages' params and kfac linears, concatenated in stage order,
  // equal the model's own ordering (pinned in tests).
  BertStage& stage(int s);
  const BertStage& stage(int s) const;

 private:
  std::vector<BertStage> stages_;
};

}  // namespace pf
