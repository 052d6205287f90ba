// Whole-model readings the BERT suites compare against: the inference loss
// of a batch and a stage partition's parameters in stage order.
#pragma once

#include <vector>

#include "src/nn/bert.h"
#include "src/nn/stage_partition.h"

namespace pf {

// Inference-only loss (no caches, no gradients): forward() plus the two
// cross-entropies, under the default serial context.
BertLossBreakdown evaluate_loss(BertModel& model, const BertBatch& batch);

// Every stage's params concatenated in stage order.
std::vector<Param*> partition_params(const BertStagePartition& part);

}  // namespace pf
