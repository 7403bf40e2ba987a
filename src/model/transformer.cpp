#include "model/transformer.h"

#include <stdexcept>

namespace autopipe::model {

TransformerModel::TransformerModel(const TinySpec& spec) : spec_(spec) {
  util::Rng rng(spec.seed);
  blocks_.push_back(
      std::make_unique<EmbeddingBlock>(spec.vocab, spec.hidden, spec.seq, rng));
  for (int layer = 0; layer < spec.layers; ++layer) {
    blocks_.push_back(std::make_unique<ResidualAttentionBlock>(
        spec.hidden, spec.heads, spec.seq, spec.causal, rng));
    blocks_.push_back(std::make_unique<ResidualFFNBlock>(spec.hidden, rng));
  }
  blocks_.push_back(std::make_unique<HeadBlock>(spec.hidden, spec.vocab, rng));
}

void TransformerModel::zero_grads() {
  for (auto& b : blocks_) b->zero_grads();
}

std::size_t TransformerModel::param_count() const {
  std::size_t n = 0;
  for (const auto& b : blocks_) n += b->param_count();
  return n;
}

Tensor TransformerModel::forward(const Tensor& ids) const {
  Tensor x = ids;
  for (const auto& b : blocks_) x = b->forward(x);
  return x;
}

double TransformerModel::reference_step(const Tensor& ids,
                                        std::span<const int> targets,
                                        double scale) {
  std::vector<Tensor> inputs;
  inputs.reserve(blocks_.size());
  Tensor x = ids;
  for (auto& b : blocks_) {
    inputs.push_back(x);
    x = b->forward(x);
  }
  Tensor dlogits;
  const double loss = cross_entropy(x, targets, scale, &dlogits);
  Tensor dy = std::move(dlogits);
  for (int i = num_blocks() - 1; i >= 0; --i) {
    dy = blocks_[i]->backward(inputs[i], std::move(dy));
  }
  return loss;
}

double TransformerModel::max_grad_diff(const TransformerModel& other) const {
  if (num_blocks() != other.num_blocks()) {
    throw std::invalid_argument("model shape mismatch");
  }
  double worst = 0;
  for (int i = 0; i < num_blocks(); ++i) {
    const auto& a = blocks_[i]->params();
    const auto& b = other.blocks_[i]->params();
    for (std::size_t p = 0; p < a.size(); ++p) {
      worst = std::max(worst, max_abs_diff(a[p].grad, b[p].grad));
    }
  }
  return worst;
}

void TransformerModel::copy_params_from(const TransformerModel& other) {
  for (int i = 0; i < num_blocks(); ++i) {
    auto& mine = blocks_[i]->params();
    const auto& theirs = other.blocks_[i]->params();
    for (std::size_t p = 0; p < mine.size(); ++p) {
      mine[p].value = theirs[p].value;
    }
  }
}

}  // namespace autopipe::model
