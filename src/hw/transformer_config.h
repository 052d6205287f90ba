// Transformer architecture configurations (the paper's Table 3).
//
// A "block" is one encoder/decoder layer: multi-head self-attention followed
// by a two-layer feed-forward network. Pipeline stages hold an integer number
// of blocks; embeddings and task heads are excluded from stage cost, exactly
// as in the paper's per-stage profiling.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pf {

// One fully-connected layer K-FAC will track: factors A (d_in×d_in) and
// B (d_out×d_out).
struct LinearShape {
  std::size_t d_in;
  std::size_t d_out;
};

struct TransformerConfig {
  std::string name;
  std::size_t d_model;    // hidden size
  std::size_t d_ff;       // feed-forward intermediate size
  std::size_t n_heads;    // attention heads
  std::size_t seq_len;    // training sequence length S
  std::size_t vocab;      // vocabulary size (head layer, excluded from K-FAC)
  std::size_t n_layers;   // total blocks in the full model (e.g., 12 / 24)

  // The six K-FAC-tracked linears of one block: Wq, Wk, Wv, Wo, W1, W2.
  std::vector<LinearShape> kfac_linears_per_block() const;

  // Parameter count of one block (weights + biases + LayerNorm).
  std::size_t params_per_block() const;

  // Number of activation floats that must be held per token to run the
  // backward pass of one block (inputs of each linear, attention
  // probabilities, GELU input). Used by the memory model.
  double activation_floats_per_token() const;

  // Peak error-signal floats per token while backpropagating one block.
  double peak_error_floats_per_token() const;

  // Error floats per token K-FAC must *save* to build the B_l factors
  // (outputs-gradients of each tracked linear).
  double saved_error_floats_per_token() const;
};

// Table 3 presets.
TransformerConfig bert_base();    // 768 / 3072 / 12 / S=128
TransformerConfig bert_large();   // 1024 / 4096 / 16 / S=128
TransformerConfig t5_base();      // 768 / 3072 / 12 / S=512
TransformerConfig t5_large();     // 1024 / 4096 / 16 / S=512
TransformerConfig opt_125m();     // 768 / 3072 / 12 / S=2048
TransformerConfig opt_350m();     // 1024 / 4096 / 16 / S=2048

TransformerConfig transformer_by_name(const std::string& name);

}  // namespace pf
