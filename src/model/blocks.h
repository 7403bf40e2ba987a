// Trainable transformer blocks at AutoPipe's sub-layer granularity (Fig. 3).
//
// A model is a sequence of Blocks: [Embedding][ResidualAttentionBlock
// ResidualFFNBlock]*L [Head] -- exactly the decomposition the cost model and
// the Planner partition. Blocks use recompute semantics (activation
// checkpointing, §II-C, used in all the paper's runs): `forward` is pure,
// and `backward(x, dy)` re-runs the forward internally from the stashed
// block input x before accumulating parameter gradients. That means a
// pipeline stage only ever stashes block inputs, matching the memory model.
// Every backward is the zero-bubble B/W split (2BP): an input half that
// returns dx and a weight half that accumulates parameter gradients; the
// plain backward runs the two back to back.
//
// Activations are [tokens, hidden] matrices with tokens = batch * seq; the
// embedding consumes token ids encoded as a [tokens, 1] float tensor so
// every inter-stage message is a plain Tensor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/ops.h"

namespace autopipe::model {

struct ParamTensor {
  std::string name;
  Tensor value;
  Tensor grad;
};

class Block {
 public:
  /// Opaque per-micro-batch forward state for the no-recompute path
  /// (§II-C's speed side of the tradeoff). The base-class default caches
  /// only the block input and recomputes in backward_cached -- exactly
  /// activation checkpointing; blocks whose intermediates are cheap to
  /// keep (FFN, head) override with a full cache, mirroring Megatron-LM's
  /// selective checkpointing (attention is always recomputed).
  struct Cache {
    virtual ~Cache() = default;
  };

  /// Opaque per-micro-batch state carried from backward_input to the
  /// deferred backward_weight (the zero-bubble B/W split). Holds whatever
  /// the weight half needs -- typically the recomputed activations feeding
  /// each parameter gradient plus the upstream dy slices.
  struct BwState {
    virtual ~BwState() = default;
  };

  virtual ~Block() = default;
  virtual const char* kind() const = 0;

  /// Pure forward of one (possibly sliced) micro-batch.
  virtual Tensor forward(const Tensor& x) const = 0;
  /// Recompute-style backward: recomputes intermediates from x, accumulates
  /// parameter gradients, returns dx. Runs backward_input then
  /// backward_weight, so the B/W split and this are one implementation.
  Tensor backward(const Tensor& x, Tensor dy);

  /// Grad-input half (the zero-bubble B op): recomputes intermediates from
  /// x, returns dx *without* touching parameter gradients, and moves what
  /// the deferred weight half needs -- dy included -- into *state. Throws
  /// std::invalid_argument when state is null (the weight gradients would
  /// be lost).
  virtual Tensor backward_input(const Tensor& x, Tensor dy,
                                std::unique_ptr<BwState>* state) = 0;
  /// Grad-weight half (the deferred W op): accumulates parameter gradients
  /// from a state produced by backward_input. A device retires weight
  /// halves in micro-batch order, so per-parameter addition order -- and
  /// hence the bits -- do not depend on how far the W op is deferred.
  virtual void backward_weight(const BwState& state) = 0;

  /// Forward that also returns the state backward_cached needs. The
  /// default keeps just x (checkpointing).
  virtual std::unique_ptr<Cache> forward_cached(const Tensor& x,
                                                Tensor* y) const;
  /// Backward from a cache produced by forward_cached. Must compute the
  /// same gradients as backward(x, dy).
  virtual Tensor backward_cached(const Cache& cache, Tensor dy);

  /// Approximate bytes held by a cache from forward_cached (for memory
  /// accounting in tests and reports).
  virtual std::size_t cache_bytes(const Tensor& x) const;

  std::vector<ParamTensor>& params() { return params_; }
  const std::vector<ParamTensor>& params() const { return params_; }
  void zero_grads();
  std::size_t param_count() const;

 protected:
  struct InputCache : Cache {
    Tensor x;
  };
  ParamTensor& add_param(std::string name, Tensor value);
  std::vector<ParamTensor> params_;
};

/// Token + positional embedding. Input: ids as [tokens, 1] floats; output
/// [tokens, hidden]. Positions are row index modulo seq_len.
class EmbeddingBlock final : public Block {
 public:
  EmbeddingBlock(int vocab, int hidden, int seq_len, util::Rng& rng);
  const char* kind() const override { return "Embedding"; }
  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, Tensor dy,
                        std::unique_ptr<BwState>* state) override;
  void backward_weight(const BwState& state) override;

 private:
  struct EmbedBwState;
  std::vector<int> decode_ids(const Tensor& x) const;
  int vocab_, hidden_, seq_len_;
};

/// Pre-LN multi-head self-attention with residual connection.
class ResidualAttentionBlock final : public Block {
 public:
  ResidualAttentionBlock(int hidden, int heads, int seq_len, bool causal,
                         util::Rng& rng);
  const char* kind() const override { return "ResidualAttentionBlock"; }
  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, Tensor dy,
                        std::unique_ptr<BwState>* state) override;
  void backward_weight(const BwState& state) override;

 private:
  struct AttnBwState;
  int hidden_, heads_, seq_len_;
  bool causal_;
};

/// Pre-LN two-layer GELU MLP (hidden -> 4*hidden -> hidden) with residual.
class ResidualFFNBlock final : public Block {
 public:
  ResidualFFNBlock(int hidden, util::Rng& rng);
  const char* kind() const override { return "ResidualFFNBlock"; }
  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, Tensor dy,
                        std::unique_ptr<BwState>* state) override;
  void backward_weight(const BwState& state) override;
  std::unique_ptr<Cache> forward_cached(const Tensor& x,
                                        Tensor* y) const override;
  Tensor backward_cached(const Cache& cache, Tensor dy) override;
  std::size_t cache_bytes(const Tensor& x) const override;

 private:
  struct FullCache;
  struct FFNBwState;
  int hidden_;
};

/// Final layer norm + vocabulary projection (untied head weight; Megatron
/// keeps a separate gradient buffer for the tied weight anyway).
class HeadBlock final : public Block {
 public:
  HeadBlock(int hidden, int vocab, util::Rng& rng);
  const char* kind() const override { return "FinalNormHead"; }
  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, Tensor dy,
                        std::unique_ptr<BwState>* state) override;
  void backward_weight(const BwState& state) override;
  std::unique_ptr<Cache> forward_cached(const Tensor& x,
                                        Tensor* y) const override;
  Tensor backward_cached(const Cache& cache, Tensor dy) override;
  std::size_t cache_bytes(const Tensor& x) const override;

 private:
  struct FullCache;
  struct HeadBwState;
  int hidden_, vocab_;
};

}  // namespace autopipe::model
