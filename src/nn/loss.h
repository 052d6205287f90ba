// Losses for BERT pretraining: masked-LM cross entropy (mean over masked
// positions, labels = -1 elsewhere) and next-sentence-prediction cross
// entropy. The pretraining loss is their sum, as in the paper (§4).
#pragma once

#include "src/common/exec_context.h"
#include "src/linalg/matrix.h"

namespace pf {

struct LossResult {
  double loss = 0.0;
  Matrix dlogits;      // gradient w.r.t. the logits (already divided by the
                       // number of counted labels)
  std::size_t counted = 0;
};

// Cross entropy over rows of `logits` [N × C]; rows with label < 0 are
// ignored (their dlogits rows are zero). Mean over counted rows. The
// softmax and the dlogits fill are row-parallel over the context; the
// scalar loss reduction stays serial so its accumulation order (and hence
// the value) matches the seed exactly. Every element of dlogits is written
// once, so it starts uninitialized.
LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<int>& labels,
                                 const ExecContext& ctx = {});

}  // namespace pf
