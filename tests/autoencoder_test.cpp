#include "src/nn/autoencoder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hcrl::nn {
namespace {

Autoencoder make_ae(std::size_t in_dim, common::Rng& rng) {
  Autoencoder::Options opts;
  opts.encoder_dims = {8, 4};
  opts.learning_rate = 3e-3;
  return Autoencoder(in_dim, opts, rng);
}

std::vector<Vec> structured_batch(common::Rng& rng, std::size_t n, std::size_t dim) {
  // Low-rank structure: x = u * pattern1 + v * pattern2 (learnable by a
  // 4-dimensional code).
  std::vector<Vec> batch;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(), v = rng.uniform();
    Vec x(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      x[d] = u * (d % 2 == 0 ? 1.0 : 0.2) + v * (d % 3 == 0 ? 0.5 : 0.9);
    }
    batch.push_back(std::move(x));
  }
  return batch;
}

TEST(Autoencoder, Dimensions) {
  common::Rng rng(1);
  Autoencoder ae = make_ae(12, rng);
  EXPECT_EQ(ae.input_dim(), 12u);
  EXPECT_EQ(ae.code_dim(), 4u);
  const Matrix code = ae.encode_batch(Matrix::from_row(Vec(12, 0.1)));
  EXPECT_EQ(code.rows(), 1u);
  EXPECT_EQ(code.cols(), 4u);
  EXPECT_EQ(ae.decoder().predict_batch(code).cols(), 12u);  // the reconstruction
}

TEST(Autoencoder, PaperDefaultDims) {
  // The paper's autoencoder: fully-connected ELU layers of 30 and 15 units.
  common::Rng rng(2);
  Autoencoder ae(50, Autoencoder::Options{}, rng);
  EXPECT_EQ(ae.code_dim(), 15u);
}

TEST(Autoencoder, TrainingReducesReconstructionError) {
  common::Rng rng(3);
  Autoencoder ae = make_ae(12, rng);
  const Matrix data = Matrix::from_rows(structured_batch(rng, 64, 12));
  const double first = ae.train_batch_matrix(data);
  double last = first;
  for (int i = 0; i < 300; ++i) last = ae.train_batch_matrix(data);
  EXPECT_LT(last, first * 0.2) << "first=" << first << " last=" << last;
}

TEST(Autoencoder, EncodeTrainingBackwardRoundTrip) {
  common::Rng rng(4);
  Autoencoder ae = make_ae(6, rng);
  const Matrix code = ae.encoder().forward_batch(Matrix::from_row(Vec(6, 0.5)));
  ASSERT_EQ(code.cols(), 4u);
  const Matrix dx = ae.encoder().backward_batch(Matrix(1, 4, 1.0));
  EXPECT_EQ(dx.cols(), 6u);
}

TEST(Autoencoder, RepeatedEncodesAreLifo) {
  // K weight-shared autoencoder applications within one computation: encode
  // twice, backprop twice in reverse order — must not throw and must give
  // per-application input gradients.
  common::Rng rng(5);
  Autoencoder ae = make_ae(6, rng);
  ae.encoder().forward_batch(Matrix::from_row(Vec(6, 0.1)));
  ae.encoder().forward_batch(Matrix::from_row(Vec(6, 0.9)));
  const Matrix dx2 = ae.encoder().backward_batch(Matrix(1, 4, 1.0));
  const Matrix dx1 = ae.encoder().backward_batch(Matrix(1, 4, 1.0));
  EXPECT_EQ(dx2.cols(), 6u);
  EXPECT_EQ(dx1.cols(), 6u);
}

TEST(Autoencoder, InvalidConstruction) {
  common::Rng rng(6);
  EXPECT_THROW(Autoencoder(0, Autoencoder::Options{}, rng), std::invalid_argument);
  Autoencoder::Options no_layers;
  no_layers.encoder_dims = {};
  EXPECT_THROW(Autoencoder(4, no_layers, rng), std::invalid_argument);
}

TEST(Autoencoder, TrainBatchValidation) {
  common::Rng rng(7);
  Autoencoder ae = make_ae(6, rng);
  EXPECT_THROW(ae.train_batch_matrix(Matrix()), std::invalid_argument);
  EXPECT_THROW(ae.train_batch_matrix(Matrix(0, 6)), std::invalid_argument);
  EXPECT_THROW(ae.train_batch_matrix(Matrix(1, 5, 0.0)), std::invalid_argument);
}

TEST(Autoencoder, ParamCountMatchesArchitecture) {
  common::Rng rng(8);
  Autoencoder ae = make_ae(12, rng);
  // encoder: 12->8 (104), 8->4 (36); decoder: 4->8 (40), 8->12 (108).
  EXPECT_EQ(ae.param_count(), 104u + 36u + 40u + 108u);
}

}  // namespace
}  // namespace hcrl::nn
