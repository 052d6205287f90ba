#include "tests/support/attention_reference.h"

#include <cmath>

#include "src/linalg/gemm.h"
#include "src/nn/activations.h"

namespace pf {

namespace {

// Copies the [seq × d_head] block of one (batch, head) out of a
// [batch·seq × d_model] tensor.
Matrix slice_bh(const Matrix& x, std::size_t b, std::size_t h,
                std::size_t seq, std::size_t d_head) {
  Matrix out(seq, d_head);
  for (std::size_t s = 0; s < seq; ++s)
    for (std::size_t c = 0; c < d_head; ++c)
      out(s, c) = x(b * seq + s, h * d_head + c);
  return out;
}

void add_slice_bh(Matrix& x, const Matrix& piece, std::size_t b,
                  std::size_t h, std::size_t seq, std::size_t d_head) {
  for (std::size_t s = 0; s < seq; ++s)
    for (std::size_t c = 0; c < d_head; ++c)
      x(b * seq + s, h * d_head + c) += piece(s, c);
}

}  // namespace

Matrix softmax_rows_backward(const Matrix& p, const Matrix& dy,
                             const ExecContext& ctx, double scale) {
  Matrix dx = dy;
  softmax_rows_backward_in_place(p, dx, ctx, scale);
  return dx;
}

AttentionReference attention_slice_reference(MultiHeadSelfAttention& attn,
                                             std::size_t n_heads,
                                             const Matrix& x, const Matrix& dy,
                                             std::size_t batch,
                                             std::size_t seq) {
  const std::vector<Linear*> layers = attn.kfac_linears();
  Linear wq = *layers[0], wk = *layers[1], wv = *layers[2], wo = *layers[3];
  for (Linear* l : {&wq, &wk, &wv, &wo}) zero_grads(l->params());
  const std::size_t d_model = x.cols();
  const std::size_t d_head = d_model / n_heads;
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head));

  const Matrix q = wq.forward(x), k = wk.forward(x), v = wv.forward(x);
  Matrix context(batch * seq, d_model, 0.0);
  std::vector<Matrix> probs;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < n_heads; ++h) {
      const Matrix qb = slice_bh(q, b, h, seq, d_head);
      const Matrix kb = slice_bh(k, b, h, seq, d_head);
      const Matrix vb = slice_bh(v, b, h, seq, d_head);
      Matrix scores = matmul_nt(qb, kb);
      scores *= scale;
      probs.push_back(softmax_rows(scores));
      add_slice_bh(context, matmul(probs.back(), vb), b, h, seq, d_head);
    }
  }
  AttentionReference out;
  out.y = wo.forward(context);

  const Matrix dcontext = wo.backward(dy);
  Matrix dq(q.rows(), d_model, 0.0);
  Matrix dk(k.rows(), d_model, 0.0);
  Matrix dv(v.rows(), d_model, 0.0);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t h = 0; h < n_heads; ++h) {
      const Matrix& p = probs[b * n_heads + h];
      const Matrix qb = slice_bh(q, b, h, seq, d_head);
      const Matrix kb = slice_bh(k, b, h, seq, d_head);
      const Matrix vb = slice_bh(v, b, h, seq, d_head);
      const Matrix dctx = slice_bh(dcontext, b, h, seq, d_head);
      const Matrix dp = matmul_nt(dctx, vb);
      add_slice_bh(dv, matmul_tn(p, dctx), b, h, seq, d_head);
      Matrix dscores = softmax_rows_backward(p, dp);
      dscores *= scale;
      add_slice_bh(dq, matmul(dscores, kb), b, h, seq, d_head);
      add_slice_bh(dk, matmul_tn(dscores, qb), b, h, seq, d_head);
    }
  }
  out.dx = wq.backward(dq);
  out.dx += wk.backward(dk);
  out.dx += wv.backward(dv);
  for (Linear* l : {&wq, &wk, &wv, &wo})
    for (Param* p : l->params()) out.param_grads.push_back(p->g);
  return out;
}

}  // namespace pf
