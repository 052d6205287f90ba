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
//                erased), run backwards, then move every linear's
//                {a_l, e_l} out of its layer: the buffers a planned reader
//                still reads into kfac_stash[m], the rest freed. The
//                borrow round trip preserves the exact buffers (backward
//                reads but never mutates a_l), so a curvature-A task that
//                runs after the backward sees a_l bit for bit. The other
//                caches stay in the layers until the next forward or
//                backward replaces them.
//
// Release at last read: begin_step() tells the stage which readers the
// step plans for each micro's K-FAC buffers — curvature A and B on a K-FAC
// refresh step, the deferred W pass under a split backward. Each read drops
// its claim (kfac_input_done, kfac_output_grad_done, backward_dw), and a
// buffer frees the moment its last claim drops; backward harvests a buffer
// only while a claim on it remains, so a curvature-A task that read a_l
// from fwd_stash[m] leaves a_l unharvested. Peak stash bytes are therefore
// O(in-flight micros) full activation sets plus the {a_l, e_l} pairs whose
// readers have not all run: at most n_micro of them, and how many depends
// on when the executor runs the curvature tasks. A planned reader that
// never runs leaves its buffer stashed, and end_step() fails naming the
// stage, micro and factor.
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

#include <cstdint>
#include <map>

#include "src/nn/bert.h"

namespace pf {

class BertStage {
 public:
  // The readers a step plans for each micro's K-FAC buffers.
  struct StashReaders {
    bool curvature = false;    // curvature A and B of every tracked factor
    bool weight_pass = false;  // the deferred W pass (split backward)
  };

  // Step boundaries. begin_step() frees whatever a step that threw left
  // stashed, resets the stash high-water mark and fixes the step's
  // readers; a stage that never sees begin_step() plans none. end_step()
  // fails, naming the stage, micro and factor, if a forward or K-FAC
  // stash entry outlived its step (a backward or a planned reader that
  // never ran), then drops the step's losses.
  void begin_step(StashReaders readers);
  void end_step();

  // Per-micro forward. `in` is the boundary activation from stage s-1
  // (ignored by stage 0, which reads the batch); returns the boundary
  // activation for stage s+1 (empty for the last stage, which instead
  // records the per-micro losses). Training mode is implied.
  Matrix forward(int micro, const BertBatch& batch, Matrix in,
                 const ExecContext& ctx);

  // Inference-mode forward: the same op sequence as forward() with
  // training=false everywhere and NO stash writes — an unbounded micro
  // stream can flow through the stage without begin_step() and without
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
  // Harvest: each tracked linear's a_l (input owners only) and e_l move
  // into the K-FAC stash while a planned reader of them remains; every
  // other linear buffer is freed here. With no reader planned (LAMB,
  // non-refresh steps) nothing is harvested and peak stash memory stays at
  // O(in-flight micros).
  // A planned W pass (zero-bubble B pass): every Linear in the stage — the
  // six tracked per block plus the heads — runs backward_dx instead of
  // backward, and the heads' {a_l, e_l} are harvested after the tracked
  // indices. The dW GEMMs then run in backward_dw(micro), which the
  // runtime chains per stage by ascending micro so each weight coordinate
  // accumulates in the serial trainer's order. Embedding, LayerNorm and
  // bias grads are cheap and stay here on the critical path.
  Matrix backward(int micro, const BertBatch& batch, Matrix grad_in,
                  const ExecContext& ctx);

  // Zero-bubble W pass for one micro: dW += a_lᵀ·e_l for every Linear
  // whose GEMM the backward deferred, reading the harvested buffers, then
  // drops the W pass's claims: each buffer no curvature task still reads
  // is freed. Same thread-safety rule as backward: the runtime serializes
  // this with the stage's other work through the stage resource token.
  void backward_dw(int micro, const ExecContext& ctx);

  // Last stage only: the losses recorded by forward(micro).
  BertLossBreakdown losses(int micro) const;

  // Stashed K-FAC tensors of one micro for factor (linear) index f in
  // kfac_linears() order: a_l after forward(micro) (the input owner's
  // buffer, served from fwd_stash before the micro's backward and from
  // kfac_stash after it, until its last planned reader is done), e_l after
  // backward(micro), until its last planned reader is done.
  const Matrix& kfac_input(int micro, std::size_t f) const;
  const Matrix& kfac_output_grad(int micro, std::size_t f) const;
  // A curvature task is done with kfac_input(micro, f) (f an input owner)
  // or kfac_output_grad(micro, f): drops its claim, freeing the buffer if
  // no other planned reader remains.
  void kfac_input_done(int micro, std::size_t f);
  void kfac_output_grad_done(int micro, std::size_t f);

  // --- Stash telemetry ---------------------------------------------------
  // Bytes currently held by this stage's per-micro stashes (fwd + kfac) and
  // the high-water mark since begin_step(). Counts matrix/vector payloads,
  // not map overhead. Read between steps.
  std::size_t stash_bytes() const { return stash_bytes_; }
  std::size_t peak_stash_bytes() const { return peak_stash_bytes_; }

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

 private:
  friend class BertStagePartition;

  struct StageCache {
    Embedding::Cache emb;                       // stage 0 only
    std::vector<TransformerBlock::Cache> blocks;
    Linear::Cache mlm_head, nsp_head;           // last stage only
    Matrix mlm_dlogits, nsp_dlogits;            // loss grads (last stage)
  };

  // One micro's K-FAC stash, created by forward(m) when the step plans a
  // reader: per linear (kfac_linears() order, then the heads under a W
  // pass) the harvested buffers, and per buffer — a_l at 2i, e_l at
  // 2i + 1 — the planned reads left. A buffer frees when its count reaches
  // zero; the entry goes once every count has and no W pass is pending.
  struct KfacEntry {
    std::vector<Linear::Cache> caches;
    std::vector<std::uint8_t> reads;
    bool weight_pass = false;
  };
  using KfacStash = std::map<int, KfacEntry>;

  StageCache save_caches();
  void restore_caches(StageCache&& c);
  const Linear::Cache& kfac_cache_of(const StageCache& c,
                                     std::size_t f) const;
  Linear* linear_at(std::size_t i) const;
  // Drops one planned read of buffer b; frees the buffer at the last.
  void drop_read(KfacEntry& e, int micro, std::size_t b);
  void curvature_read_done(int micro, std::size_t f, std::size_t b);
  // Erases the entry once nothing reads it any more.
  void erase_if_read(KfacStash::iterator it);

  static std::size_t bytes_of(const StageCache& c);
  void stash_add(std::size_t bytes);
  void stash_sub(std::size_t bytes);

  int index_ = 0;
  Embedding* emb_ = nullptr;       // stage 0
  std::vector<TransformerBlock*> blocks_;
  Linear* mlm_head_ = nullptr;     // last stage
  Linear* nsp_head_ = nullptr;
  std::vector<Linear*> kfac_linears_;
  std::vector<std::size_t> kfac_input_owners_;
  StashReaders readers_;  // fixed by begin_step()
  std::map<int, StageCache> fwd_stash_;
  // What K-FAC and the W pass read, harvested at backward. Stashing the
  // full cache set again would hold every forward activation twice.
  KfacStash kfac_stash_;
  // Losses live outside the cache stash: the step's loss fold reads them
  // after every other buffer of the micro is gone.
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
