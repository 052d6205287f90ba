#include "src/hw/transformer_config.h"

#include "src/common/check.h"

namespace pf {

std::vector<LinearShape> TransformerConfig::kfac_linears_per_block() const {
  return {
      {d_model, d_model},  // Wq
      {d_model, d_model},  // Wk
      {d_model, d_model},  // Wv
      {d_model, d_model},  // Wo
      {d_model, d_ff},     // W1
      {d_ff, d_model},     // W2
  };
}

std::size_t TransformerConfig::params_per_block() const {
  std::size_t weights = 0;
  std::size_t biases = 0;
  for (const auto& l : kfac_linears_per_block()) {
    weights += l.d_in * l.d_out;
    biases += l.d_out;
  }
  const std::size_t layer_norms = 2 * 2 * d_model;  // two LN, gamma+beta
  return weights + biases + layer_norms;
}

double TransformerConfig::activation_floats_per_token() const {
  const double d = static_cast<double>(d_model);
  const double ff = static_cast<double>(d_ff);
  const double hS = static_cast<double>(n_heads * seq_len);
  // Inputs of Wq/Wk/Wv share one tensor (d); Q,K,V (3d); attention
  // probabilities (h·S per token); attention output = Wo input (d); residual
  // + LN intermediates (~4d); W1 input (d); GELU input (ff); W2 input (ff);
  // block output (d).
  return 11.0 * d + 2.0 * ff + hS;
}

double TransformerConfig::peak_error_floats_per_token() const {
  const double d = static_cast<double>(d_model);
  const double ff = static_cast<double>(d_ff);
  const double hS = static_cast<double>(n_heads * seq_len);
  // While backpropagating a block, the live error signals are bounded by the
  // widest frontier: dL/d(FFN intermediate) (ff) plus attention score grads.
  return 4.0 * d + ff + hS;
}

double TransformerConfig::saved_error_floats_per_token() const {
  double total = 0.0;
  for (const auto& l : kfac_linears_per_block())
    total += static_cast<double>(l.d_out);
  return total;  // 5·d_model + d_ff
}

namespace {
TransformerConfig make(std::string name, std::size_t d, std::size_t ff,
                       std::size_t h, std::size_t s, std::size_t vocab,
                       std::size_t layers) {
  return TransformerConfig{std::move(name), d, ff, h, s, vocab, layers};
}
}  // namespace

TransformerConfig bert_base() {
  return make("bert-base", 768, 3072, 12, 128, 30522, 12);
}
TransformerConfig bert_large() {
  return make("bert-large", 1024, 4096, 16, 128, 30522, 24);
}
TransformerConfig t5_base() {
  return make("t5-base", 768, 3072, 12, 512, 32128, 12);
}
TransformerConfig t5_large() {
  return make("t5-large", 1024, 4096, 16, 512, 32128, 24);
}
TransformerConfig opt_125m() {
  return make("opt-125m", 768, 3072, 12, 2048, 50272, 12);
}
TransformerConfig opt_350m() {
  return make("opt-350m", 1024, 4096, 16, 2048, 50272, 24);
}

TransformerConfig transformer_by_name(const std::string& name) {
  if (name == "bert-base") return bert_base();
  if (name == "bert-large") return bert_large();
  if (name == "t5-base") return t5_base();
  if (name == "t5-large") return t5_large();
  if (name == "opt-125m") return opt_125m();
  if (name == "opt-350m") return opt_350m();
  PF_CHECK(false) << "unknown transformer config: " << name;
  __builtin_unreachable();
}

}  // namespace pf
