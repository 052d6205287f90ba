#include "tests/support/bert_reference.h"

#include "src/nn/loss.h"

namespace pf {

BertLossBreakdown evaluate_loss(BertModel& model, const BertBatch& batch) {
  const BertInferOutput out = model.forward(batch, /*training=*/false);
  const auto mlm = softmax_cross_entropy(out.mlm_logits, batch.mlm_labels);
  const auto nsp = softmax_cross_entropy(out.nsp_logits, batch.nsp_labels);
  return {mlm.loss + nsp.loss, mlm.loss, nsp.loss};
}

std::vector<Param*> partition_params(const BertStagePartition& part) {
  std::vector<Param*> out;
  for (int s = 0; s < part.n_stages(); ++s)
    for (Param* p : part.stage(s).params()) out.push_back(p);
  return out;
}

}  // namespace pf
