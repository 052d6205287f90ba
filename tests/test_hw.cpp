// Tests for src/hw: hardware profiles, Table-3 architecture configs, the
// FLOP/byte cost model and the §3.3 memory model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/hw/cost_model.h"
#include "src/hw/hardware_profile.h"
#include "src/hw/memory_model.h"
#include "src/hw/transformer_config.h"

namespace pf {
namespace {

const std::vector<std::string> kHardwareNames = {"p100", "v100", "rtx3090",
                                                 "toy"};
const std::vector<std::string> kTransformerNames = {
    "bert-base", "bert-large", "t5-base", "t5-large", "opt-125m", "opt-350m"};

TEST(HardwareProfile, LookupByName) {
  for (const auto& n : kHardwareNames)
    EXPECT_EQ(hardware_by_name(n).name, n);
  EXPECT_THROW(hardware_by_name("tpu"), Error);
}

TEST(HardwareProfile, RelativeSpeeds) {
  // V100 and RTX3090 are faster than P100 in peak FLOPs (paper Appendix A).
  EXPECT_GT(v100().peak_flops, p100().peak_flops);
  EXPECT_GT(rtx3090().peak_flops, v100().peak_flops);
}

TEST(TransformerConfig, Table3Configurations) {
  const auto base = bert_base();
  EXPECT_EQ(base.d_model, 768u);
  EXPECT_EQ(base.d_ff, 3072u);
  EXPECT_EQ(base.n_heads, 12u);
  EXPECT_EQ(base.seq_len, 128u);
  EXPECT_EQ(base.n_layers, 12u);
  const auto large = bert_large();
  EXPECT_EQ(large.d_model, 1024u);
  EXPECT_EQ(large.d_ff, 4096u);
  EXPECT_EQ(large.n_heads, 16u);
  EXPECT_EQ(large.n_layers, 24u);
  EXPECT_EQ(t5_base().seq_len, 512u);
  EXPECT_EQ(t5_large().seq_len, 512u);
  EXPECT_EQ(opt_125m().seq_len, 2048u);
  EXPECT_EQ(opt_350m().seq_len, 2048u);
}

TEST(TransformerConfig, LookupByNameRoundTrip) {
  for (const auto& n : kTransformerNames)
    EXPECT_EQ(transformer_by_name(n).name, n);
  EXPECT_THROW(transformer_by_name("gpt-17"), Error);
}

TEST(TransformerConfig, SixKfacLinearsPerBlock) {
  const auto ls = bert_base().kfac_linears_per_block();
  ASSERT_EQ(ls.size(), 6u);
  EXPECT_EQ(ls[4].d_in, 768u);   // W1: d_model -> d_ff
  EXPECT_EQ(ls[4].d_out, 3072u);
  EXPECT_EQ(ls[5].d_in, 3072u);  // W2: d_ff -> d_model
  EXPECT_EQ(ls[5].d_out, 768u);
}

TEST(TransformerConfig, ParamsPerBlockMatchesKnownBertBase) {
  // BERT-Base encoder layer ≈ 7.09M parameters.
  const double p = static_cast<double>(bert_base().params_per_block());
  EXPECT_NEAR(p, 7.09e6, 0.05e6);
}

TEST(CostModel, ForwardFlopsMatchClosedForm) {
  const auto cfg = bert_base();
  const double f = CostModel::flops_forward_block(cfg, 32);
  // tokens·(8d² + 4·d·dff + 4·S·d)
  const double tokens = 32.0 * 128.0;
  const double expect =
      tokens * (8.0 * 768 * 768 + 4.0 * 768 * 3072 + 4.0 * 128 * 768);
  EXPECT_DOUBLE_EQ(f, expect);
}

TEST(CostModel, BackwardIsTwiceForward) {
  const auto cfg = bert_large();
  EXPECT_DOUBLE_EQ(CostModel::flops_backward_block(cfg, 8),
                   2.0 * CostModel::flops_forward_block(cfg, 8));
}

TEST(CostModel, BackwardTimeRoughlyTwiceForwardTime) {
  const CostModel cm(p100());
  const StageShape s{bert_base(), 3, 32};
  const double tf = cm.time_forward_stage(s);
  const double tb = cm.time_backward_stage(s);
  EXPECT_GT(tb / tf, 1.6);
  EXPECT_LT(tb / tf, 2.4);
}

TEST(CostModel, RecomputeAddsOneForward) {
  const CostModel cm(p100());
  const StageShape s{bert_base(), 2, 16};
  EXPECT_NEAR(cm.time_backward_stage_recompute(s),
              cm.time_backward_stage(s) + cm.time_forward_stage(s), 1e-12);
}

TEST(CostModel, InversionIndependentOfMicroBatch) {
  const CostModel cm(p100());
  // Inversion cost depends only on factor dimensions (paper §3.3: T_inv is
  // constant regardless of B_micro or D).
  EXPECT_DOUBLE_EQ(cm.time_inversion_block(bert_base()),
                   cm.time_inversion_block(bert_base()));
  const double t_small = cm.time_inversion_factor(768);
  const double t_large = cm.time_inversion_factor(3072);
  EXPECT_GT(t_large, 10.0 * t_small);  // cubic growth
}

TEST(CostModel, CurvatureScalesLinearlyInTokens) {
  const CostModel cm(p100());
  const StageShape s8{bert_base(), 1, 8};
  const StageShape s32{bert_base(), 1, 32};
  const double r = cm.time_curvature_block(s32) / cm.time_curvature_block(s8);
  EXPECT_GT(r, 3.3);  // ~4 modulo fixed kernel overhead
  EXPECT_LT(r, 4.1);
}

TEST(CostModel, CurvatureComparableToForward) {
  // One micro-batch of curvature work is in the same ballpark as a forward
  // pass (the B factor of the wide FFN layer makes it somewhat larger —
  // d_ff² per token vs the GEMM's d·d_ff).
  const CostModel cm(p100());
  const StageShape s{bert_base(), 3, 32};
  const double ratio = cm.time_curvature_block(s) *
                       static_cast<double>(s.blocks) /
                       cm.time_forward_stage(s);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.2);
}

TEST(CostModel, PreconditionSmallRelativeToStep) {
  // Precondition is the only per-step overhead and must be small (paper:
  // ~6.5% of a BERT-Large Chimera step).
  const CostModel cm(p100());
  const StageShape s{bert_large(), 3, 32};
  const double step =
      8.0 * (cm.time_forward_stage(s) + cm.time_backward_stage(s));
  EXPECT_LT(cm.time_precondition_stage(s.cfg, s.blocks) / step, 0.15);
}

TEST(CostModel, AllreduceZeroForSingleDevice) {
  const CostModel cm(p100());
  EXPECT_DOUBLE_EQ(cm.time_allreduce(1e9, 1), 0.0);
  EXPECT_GT(cm.time_allreduce(1e9, 2), 0.0);
}

TEST(CostModel, AllreduceGrowsWithWorldSize) {
  const CostModel cm(p100());
  EXPECT_GT(cm.time_allreduce(1e9, 8), cm.time_allreduce(1e9, 2));
  // But sub-linearly (ring): 2(w-1)/w approaches 2.
  EXPECT_LT(cm.time_allreduce(1e9, 64), 2.0 * 1e9 / p100().link_bandwidth +
                                            200 * p100().link_latency);
}

TEST(CostModel, FasterHardwareIsFaster) {
  const CostModel slow(p100()), fast(v100());
  const StageShape s{bert_base(), 3, 32};
  EXPECT_LT(fast.time_forward_stage(s), slow.time_forward_stage(s));
  EXPECT_LT(fast.time_inversion_block(s.cfg), slow.time_inversion_block(s.cfg));
}

TEST(MemoryModel, CurvatureConstantInMicroBatch) {
  MemoryModelInput a{bert_base(), 1, 1, 8, 4, false};
  MemoryModelInput b{bert_base(), 1, 1, 64, 4, false};
  EXPECT_DOUBLE_EQ(model_memory(a).curv_plus_inv,
                   model_memory(b).curv_plus_inv);
}

TEST(MemoryModel, ActivationsScaleWithMicroBatchAndCount) {
  MemoryModelInput a{bert_base(), 1, 1, 8, 4, false};
  MemoryModelInput b = a;
  b.b_micro = 16;
  EXPECT_NEAR(model_memory(b).activations / model_memory(a).activations, 2.0,
              1e-9);
  MemoryModelInput c = a;
  c.n_micro = 8;
  EXPECT_NEAR(model_memory(c).activations / model_memory(a).activations, 2.0,
              1e-9);
}

TEST(MemoryModel, RecomputationCutsActivationMemory) {
  MemoryModelInput full{bert_base(), 1, 1, 32, 16, false};
  MemoryModelInput r = full;
  r.recompute = true;
  EXPECT_LT(model_memory(r).activations,
            0.25 * model_memory(full).activations);
  // Everything else unchanged.
  EXPECT_DOUBLE_EQ(model_memory(r).curv_plus_inv,
                   model_memory(full).curv_plus_inv);
}

TEST(MemoryModel, BertBaseStageFitsP100) {
  // The paper trains BERT-Base with B=32 micro-batches on 16 GB P100s.
  MemoryModelInput in{bert_base(), 3, 1, 32, 4, false};
  EXPECT_LT(model_memory(in).total(), p100().memory_capacity);
}

// Property sweep across all Table-3 architectures.
class ArchSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ArchSweepTest, CostsArePositiveAndOrdered) {
  const auto cfg = transformer_by_name(GetParam());
  const CostModel cm(p100());
  const StageShape s{cfg, 1, 8};
  EXPECT_GT(cm.time_forward_stage(s), 0.0);
  EXPECT_GT(cm.time_backward_stage(s), cm.time_forward_stage(s));
  EXPECT_GT(cm.time_curvature_block(s), 0.0);
  EXPECT_GT(cm.time_inversion_block(cfg), 0.0);
  EXPECT_GT(cm.time_precondition_stage(cfg, 1), 0.0);
}

TEST_P(ArchSweepTest, LongerSequencesRaiseComputeNotInversion) {
  const auto cfg = transformer_by_name(GetParam());
  const CostModel cm(p100());
  TransformerConfig twice = cfg;
  twice.seq_len *= 2;
  const StageShape s1{cfg, 1, 4};
  const StageShape s2{twice, 1, 4};
  EXPECT_GT(cm.time_forward_stage(s2), 1.8 * cm.time_forward_stage(s1));
  EXPECT_DOUBLE_EQ(cm.time_inversion_block(twice),
                   cm.time_inversion_block(cfg));
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ArchSweepTest,
                         ::testing::ValuesIn(kTransformerNames));

}  // namespace
}  // namespace pf
