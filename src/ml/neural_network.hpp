// Multi-layer perceptron (the paper's "NN" model): fully-connected ReLU
// hidden layers, sigmoid output, binary cross-entropy loss, mini-batch Adam.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ml/model.hpp"

namespace repro::ml {

class NeuralNetwork final : public Model {
 public:
  struct Params {
    std::vector<std::size_t> hidden = {128, 64};
    std::size_t epochs = 40;
    std::size_t batch_size = 128;
    double learning_rate = 1e-3;
    double l2 = 1e-5;
    double pos_weight = 1.0;
  };

  explicit NeuralNetwork(std::uint64_t seed = 1234);
  explicit NeuralNetwork(const Params& params, std::uint64_t seed = 1234);

  void fit(const Dataset& train) override;
  [[nodiscard]] float predict_proba(std::span<const float> x) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "NN";
  }

  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// Fitted parameters (for pinning tests): layer l's weights (out x in,
  /// row-major) and biases; the last layer is the 1-unit output.
  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] std::span<const float> weights(std::size_t l) const {
    return layers_.at(l).w;
  }
  [[nodiscard]] std::span<const float> biases(std::size_t l) const {
    return layers_.at(l).b;
  }

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<float> w;  ///< out x in, row-major
    std::vector<float> b;  ///< out
    // Adam moments.
    std::vector<double> mw, vw, mb, vb;
  };

  void forward(std::span<const float> x, std::vector<std::vector<float>>& acts) const;

  Params params_;
  Rng rng_;
  std::vector<Layer> layers_;  ///< hidden layers + final 1-unit layer
};

}  // namespace repro::ml
