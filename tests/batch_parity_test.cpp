// Property tests pinning batched execution to one sample at a time:
// Network::forward_batch on N stacked inputs must match N batch-1 calls (and
// likewise for backward gradients, LSTM steps/BPTT, the autoencoder training
// step, and the global tier's DQN step, core::GroupedQNetwork::train_batch,
// at K = 1 and K = 3, against per-sample reference loops kept here) to
// 1e-12, across random shapes, activations and seeds.
//
// Also the precision gates of the f32 compute mode: the float instantiation
// of the substrate must track the double one to 1e-4 relative (forward,
// backward gradients, LSTM) and a GroupedQNetwork trained at f32 must pick
// the same greedy actions as its f64 twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/qnetwork.hpp"
#include "src/nn/autoencoder.hpp"
#include "src/nn/init.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/network.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/precision.hpp"
#include "src/rl/smdp.hpp"
#include "tests/reference_loss.hpp"

namespace hcrl::nn {
namespace {

constexpr double kTol = 1e-12;

Vec random_vec(std::size_t n, common::Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

// The same values at f32 (each rounded once), for the precision gates.
std::vector<VecT<float>> to_f32(const std::vector<Vec>& rows) {
  std::vector<VecT<float>> out;
  for (const Vec& r : rows) out.emplace_back(r.begin(), r.end());
  return out;
}

// Reset the cell to Xs[0].rows() sequences and run every step, keeping the
// caches for BPTT; returns each step's (batch x H) hidden state.
template <class S>
std::vector<MatrixT<S>> run_steps(LstmT<S>& lstm, const std::vector<MatrixT<S>>& Xs) {
  lstm.reset_batch(Xs.front().rows());
  std::vector<MatrixT<S>> hs;
  for (const auto& X : Xs) hs.push_back(lstm.step_batch(X));
  return hs;
}

// All segments (values and gradients) of two parameter lists must agree.
void expect_params_close(const std::vector<ParamBlockPtr>& a, const std::vector<ParamBlockPtr>& b,
                         double tol, const char* what) {
  std::vector<ParamSegment> sa, sb;
  for (const auto& p : a) p->append_segments(sa);
  for (const auto& p : b) p->append_segments(sb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t s = 0; s < sa.size(); ++s) {
    ASSERT_EQ(sa[s].n, sb[s].n);
    for (std::size_t i = 0; i < sa[s].n; ++i) {
      EXPECT_NEAR(sa[s].value[i], sb[s].value[i], tol)
          << what << ": value segment " << s << " index " << i;
      EXPECT_NEAR(sa[s].grad[i], sb[s].grad[i], tol)
          << what << ": grad segment " << s << " index " << i;
    }
  }
}

Network random_network(std::size_t in, common::Rng& rng, std::size_t* out_dim) {
  static const Activation kKinds[] = {Activation::kIdentity, Activation::kRelu,
                                      Activation::kElu, Activation::kTanh,
                                      Activation::kSigmoid};
  Network net;
  const std::size_t layers = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  std::size_t prev = in;
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t next = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    const Activation act = kKinds[rng.uniform_int(0, 4)];
    net.add_dense(prev, next, act, rng);
    prev = next;
  }
  *out_dim = prev;
  return net;
}

TEST(BatchParity, NetworkForwardMatchesPerSample) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng rng(seed);
    const std::size_t in = 1 + static_cast<std::size_t>(rng.uniform_int(0, 11));
    const std::size_t batch = 1 + static_cast<std::size_t>(rng.uniform_int(0, 32));
    std::size_t out = 0;
    Network net = random_network(in, rng, &out);

    std::vector<Vec> xs;
    for (std::size_t b = 0; b < batch; ++b) xs.push_back(random_vec(in, rng));
    const Matrix Y = net.predict_batch(Matrix::from_rows(xs));
    ASSERT_EQ(Y.rows(), batch);
    ASSERT_EQ(Y.cols(), out);
    for (std::size_t b = 0; b < batch; ++b) {
      const Vec y = net.predict_batch(Matrix::from_row(xs[b])).row(0);
      for (std::size_t j = 0; j < out; ++j) {
        EXPECT_NEAR(Y(b, j), y[j], kTol) << "seed " << seed << " row " << b;
      }
    }
  }
}

TEST(BatchParity, NetworkBackwardGradientsMatchPerSample) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t in = 2 + (seed % 7);
    const std::size_t batch = 1 + static_cast<std::size_t>(seed * 5 % 29);
    // Two identically-initialized networks: one runs the batched pass, the
    // other the per-sample loop.
    common::Rng rng_a(seed * 97), rng_b(seed * 97);
    std::size_t out_a = 0, out_b = 0;
    Network net_a = random_network(in, rng_a, &out_a);
    Network net_b = random_network(in, rng_b, &out_b);
    ASSERT_EQ(out_a, out_b);

    common::Rng data(seed * 1337);
    std::vector<Vec> xs, dys;
    for (std::size_t b = 0; b < batch; ++b) {
      xs.push_back(random_vec(in, data));
      dys.push_back(random_vec(out_a, data));
    }

    net_a.zero_grad();
    net_a.forward_batch(Matrix::from_rows(xs));
    const Matrix dX = net_a.backward_batch(Matrix::from_rows(dys));

    net_b.zero_grad();
    std::vector<Vec> dx_rows;
    for (std::size_t b = 0; b < batch; ++b) {
      net_b.forward_batch(Matrix::from_row(xs[b]));
      dx_rows.push_back(net_b.backward_batch(Matrix::from_row(dys[b])).row(0));
    }

    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t j = 0; j < in; ++j) {
        EXPECT_NEAR(dX(b, j), dx_rows[b][j], kTol) << "seed " << seed << " row " << b;
      }
    }
    expect_params_close(net_a.params(), net_b.params(), kTol, "network backward");
  }
}

TEST(BatchParity, LstmStepsMatchPerSampleInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed * 11);
    const std::size_t in = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    const std::size_t hidden = 1 + static_cast<std::size_t>(rng.uniform_int(0, 9));
    const std::size_t batch = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
    const std::size_t steps = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));

    auto params = std::make_shared<LstmParams>(hidden, in);
    init_lstm(*params, rng);

    // batch parallel sequences through one batched cell...
    Lstm batched(params);
    batched.reset_batch(batch);
    // ...versus `batch` independent batch-1 cells sharing the parameters.
    std::vector<Lstm> singles;
    for (std::size_t b = 0; b < batch; ++b) singles.emplace_back(params);

    for (std::size_t t = 0; t < steps; ++t) {
      std::vector<Vec> xs;
      for (std::size_t b = 0; b < batch; ++b) xs.push_back(random_vec(in, rng));
      const Matrix H = batched.step_batch(Matrix::from_rows(xs));
      for (std::size_t b = 0; b < batch; ++b) {
        const Vec h = singles[b].step_batch(Matrix::from_row(xs[b])).row(0);
        for (std::size_t j = 0; j < hidden; ++j) {
          EXPECT_NEAR(H(b, j), h[j], kTol) << "seed " << seed << " t " << t << " row " << b;
        }
      }
    }
    for (auto& s : singles) s.reset();  // drop caches; no backward here
  }
}

TEST(BatchParity, LstmBpttGradientsMatchPerSample) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed * 29);
    const std::size_t in = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    const std::size_t hidden = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const std::size_t batch = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const std::size_t steps = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));

    auto params_a = std::make_shared<LstmParams>(hidden, in);
    common::Rng init_rng(seed * 71);
    init_lstm(*params_a, init_rng);
    auto params_b = std::make_shared<LstmParams>(hidden, in);
    common::Rng init_rng2(seed * 71);
    init_lstm(*params_b, init_rng2);

    std::vector<std::vector<Vec>> xs(steps), dhs(steps);
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t b = 0; b < batch; ++b) {
        xs[t].push_back(random_vec(in, rng));
        dhs[t].push_back(random_vec(hidden, rng));
      }
    }

    // Batched: one cell carrying all sequences.
    params_a->zero_grad();
    Lstm batched(params_a);
    std::vector<Matrix> Xs;
    for (std::size_t t = 0; t < steps; ++t) Xs.push_back(Matrix::from_rows(xs[t]));
    run_steps(batched, Xs);
    std::vector<Matrix> dH;
    for (std::size_t t = 0; t < steps; ++t) dH.push_back(Matrix::from_rows(dhs[t]));
    const Matrix dX = batched.backward_batch(dH);  // steps newest first

    // Per-sample: one batch-1 cell per sequence, gradients summed into params_b.
    params_b->zero_grad();
    std::vector<Matrix> dx_single(batch);  // per sequence: dL/dX, newest step first
    for (std::size_t b = 0; b < batch; ++b) {
      Lstm single(params_b);
      std::vector<Matrix> seq, dh;
      for (std::size_t t = 0; t < steps; ++t) {
        seq.push_back(Matrix::from_row(xs[t][b]));
        dh.push_back(Matrix::from_row(dhs[t][b]));
      }
      run_steps(single, seq);
      dx_single[b] = single.backward_batch(dh);
    }

    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t j = 0; j < in; ++j) {
          EXPECT_NEAR(dX((steps - 1 - t) * batch + b, j), dx_single[b](steps - 1 - t, j), kTol)
              << "seed " << seed << " t " << t << " row " << b;
        }
      }
    }
    expect_params_close({params_a}, {params_b}, kTol, "lstm bptt");
  }
}

TEST(BatchParity, AutoencoderBatchedTrainMatchesPerSampleReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::size_t dim = 6 + (seed % 5);
    const std::size_t batch = 3 + (seed % 6);
    Autoencoder::Options opts;
    common::Rng rng_a(seed * 13), rng_b(seed * 13);
    Autoencoder ae(dim, opts, rng_a);

    // Reference: the same architecture trained by an explicit per-sample
    // loop over batch-1 forward/backward calls.
    Autoencoder ref(dim, opts, rng_b);

    common::Rng data(seed * 101);
    std::vector<Vec> samples;
    for (std::size_t b = 0; b < batch; ++b) samples.push_back(random_vec(dim, data));

    const double batched_loss = ae.train_batch_matrix(Matrix::from_rows(samples));

    Adam ref_opt(ref.params(), Adam::Options{.lr = opts.learning_rate});
    ref_opt.zero_grad();
    double total = 0.0;
    const double inv_n = 1.0 / static_cast<double>(batch);
    for (const Vec& x : samples) {
      Matrix code = ref.encoder().forward_batch(Matrix::from_row(x));
      const Vec recon = ref.decoder().forward_batch(std::move(code)).row(0);
      reference::LossResult loss = reference::mse_loss(recon, x);
      total += loss.value;
      reference::scale_in_place(loss.grad, inv_n);
      const Matrix dcode = ref.decoder().backward_batch(Matrix::from_row(loss.grad));
      ref.encoder().backward_batch(dcode);
    }
    clip_grad_norm(ref.params(), opts.grad_clip);
    ref_opt.step();

    EXPECT_NEAR(batched_loss, total * inv_n, kTol);
    expect_params_close(ae.params(), ref.params(), kTol, "autoencoder train");
  }
}

// ---- f32-vs-f64 precision gates ------------------------------------------

// |a - b| <= tol * max(1, |b|): relative against the f64 reference, with an
// absolute floor so near-zero values don't demand absolute f32 exactness.
void expect_rel_close(double a, double b, double tol, const char* what) {
  EXPECT_LE(std::abs(a - b), tol * std::max(1.0, std::abs(b))) << what << ": " << a << " vs " << b;
}

constexpr double kPrecTol = 1e-4;

struct NetGeometry {
  std::vector<std::size_t> dims;       // layer widths incl. input
  std::vector<Activation> activations;  // one per dense layer
};

NetGeometry random_geometry(std::uint64_t seed) {
  static const Activation kKinds[] = {Activation::kIdentity, Activation::kRelu,
                                      Activation::kElu, Activation::kTanh,
                                      Activation::kSigmoid};
  common::Rng rng(seed * 7919);
  NetGeometry g;
  g.dims.push_back(1 + static_cast<std::size_t>(rng.uniform_int(0, 11)));
  const std::size_t layers = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  for (std::size_t l = 0; l < layers; ++l) {
    g.dims.push_back(1 + static_cast<std::size_t>(rng.uniform_int(0, 15)));
    g.activations.push_back(kKinds[rng.uniform_int(0, 4)]);
  }
  return g;
}

// Both precisions consume the identical double-valued init stream, so the
// f32 net holds exactly the rounded weights of the f64 net.
template <class S>
NetworkT<S> build_geometry_net(const NetGeometry& g, std::uint64_t weight_seed) {
  common::Rng rng(weight_seed);
  NetworkT<S> net;
  for (std::size_t l = 0; l + 1 < g.dims.size(); ++l) {
    net.add_dense(g.dims[l], g.dims[l + 1], g.activations[l], rng);
  }
  return net;
}

TEST(PrecisionParity, NetworkForwardF32TracksF64) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const NetGeometry g = random_geometry(seed);
    NetworkT<double> net64 = build_geometry_net<double>(g, seed * 131);
    NetworkT<float> net32 = build_geometry_net<float>(g, seed * 131);

    common::Rng data(seed * 977);
    const std::size_t batch = 1 + static_cast<std::size_t>(data.uniform_int(0, 24));
    std::vector<Vec> xs;
    for (std::size_t b = 0; b < batch; ++b) xs.push_back(random_vec(g.dims.front(), data));

    const MatrixT<double> Y64 = net64.predict_batch(MatrixT<double>::from_rows(xs));
    const MatrixT<float> Y32 = net32.predict_batch(MatrixT<float>::from_rows(to_f32(xs)));
    ASSERT_TRUE(Y64.rows() == Y32.rows() && Y64.cols() == Y32.cols());
    for (std::size_t b = 0; b < Y64.rows(); ++b) {
      for (std::size_t j = 0; j < Y64.cols(); ++j) {
        expect_rel_close(static_cast<double>(Y32(b, j)), Y64(b, j), kPrecTol, "forward");
      }
    }
  }
}

TEST(PrecisionParity, NetworkBackwardGradientsF32TrackF64) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const NetGeometry g = random_geometry(seed);
    NetworkT<double> net64 = build_geometry_net<double>(g, seed * 577);
    NetworkT<float> net32 = build_geometry_net<float>(g, seed * 577);

    common::Rng data(seed * 271);
    const std::size_t batch = 1 + static_cast<std::size_t>(data.uniform_int(0, 16));
    std::vector<Vec> xs, dys;
    for (std::size_t b = 0; b < batch; ++b) {
      xs.push_back(random_vec(g.dims.front(), data));
      dys.push_back(random_vec(g.dims.back(), data));
    }

    net64.zero_grad();
    net64.forward_batch(MatrixT<double>::from_rows(xs));
    net64.backward_batch(MatrixT<double>::from_rows(dys));
    net32.zero_grad();
    net32.forward_batch(MatrixT<float>::from_rows(to_f32(xs)));
    net32.backward_batch(MatrixT<float>::from_rows(to_f32(dys)));

    std::vector<ParamSegmentT<double>> s64 = gather_segments(net64.params());
    std::vector<ParamSegmentT<float>> s32 = gather_segments(net32.params());
    ASSERT_EQ(s64.size(), s32.size());
    for (std::size_t s = 0; s < s64.size(); ++s) {
      ASSERT_EQ(s64[s].n, s32[s].n);
      for (std::size_t i = 0; i < s64[s].n; ++i) {
        expect_rel_close(static_cast<double>(s32[s].grad[i]), s64[s].grad[i], kPrecTol,
                         "backward grad");
      }
    }
  }
}

TEST(PrecisionParity, LstmF32TracksF64ThroughStepsAndBptt) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng geo(seed * 43);
    const std::size_t in = 1 + static_cast<std::size_t>(geo.uniform_int(0, 2));
    const std::size_t hidden = 2 + static_cast<std::size_t>(geo.uniform_int(0, 8));
    const std::size_t batch = 1 + static_cast<std::size_t>(geo.uniform_int(0, 7));
    const std::size_t steps = 2 + static_cast<std::size_t>(geo.uniform_int(0, 4));

    auto params64 = std::make_shared<LstmParamsT<double>>(hidden, in);
    auto params32 = std::make_shared<LstmParamsT<float>>(hidden, in);
    common::Rng init64(seed * 17), init32(seed * 17);
    init_lstm(*params64, init64);
    init_lstm(*params32, init32);
    params64->zero_grad();
    params32->zero_grad();

    LstmT<double> lstm64(params64);
    LstmT<float> lstm32(params32);

    common::Rng data(seed * 601);
    std::vector<MatrixT<double>> Xs64, dH64;
    std::vector<MatrixT<float>> Xs32, dH32;
    for (std::size_t t = 0; t < steps; ++t) {
      std::vector<Vec> xs, dhs;
      for (std::size_t b = 0; b < batch; ++b) {
        xs.push_back(random_vec(in, data));
        dhs.push_back(random_vec(hidden, data));
      }
      Xs64.push_back(MatrixT<double>::from_rows(xs));
      dH64.push_back(MatrixT<double>::from_rows(dhs));
      Xs32.push_back(MatrixT<float>::from_rows(to_f32(xs)));
      dH32.push_back(MatrixT<float>::from_rows(to_f32(dhs)));
    }

    const auto hs64 = run_steps(lstm64, Xs64);
    const auto hs32 = run_steps(lstm32, Xs32);
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t j = 0; j < hidden; ++j) {
          expect_rel_close(static_cast<double>(hs32[t](b, j)), hs64[t](b, j), kPrecTol,
                           "lstm hidden");
        }
      }
    }

    lstm64.backward_batch(dH64);
    lstm32.backward_batch(dH32);
    std::vector<ParamSegmentT<double>> s64;
    std::vector<ParamSegmentT<float>> s32;
    params64->append_segments(s64);
    params32->append_segments(s32);
    ASSERT_EQ(s64.size(), s32.size());
    for (std::size_t s = 0; s < s64.size(); ++s) {
      ASSERT_EQ(s64[s].n, s32[s].n);
      for (std::size_t i = 0; i < s64[s].n; ++i) {
        expect_rel_close(static_cast<double>(s32[s].grad[i]), s64[s].grad[i], kPrecTol,
                         "lstm bptt grad");
      }
    }
  }
}

}  // namespace
}  // namespace hcrl::nn

namespace hcrl::core {
namespace {

// M = 6 divides into K = 1 (the monolithic network, no autoencoder) and
// K = 3 (three heads of two servers, each reading the other two codes).
GroupedQOptions parity_opts(std::size_t groups, nn::Precision precision) {
  GroupedQOptions o;
  o.encoder.num_servers = 6;
  o.encoder.num_groups = groups;
  o.encoder.num_resources = 2;
  o.autoencoder_dims = {8, 4};
  o.subq_hidden = 16;
  o.precision = precision;
  return o;
}

nn::Vec random_state(const GroupedQOptions& o, common::Rng& rng) {
  nn::Vec s(o.encoder.full_state_dim());
  for (auto& v : s) v = rng.uniform();
  return s;
}

std::vector<rl::Transition> random_transitions(const GroupedQOptions& o, std::size_t n,
                                               common::Rng& rng) {
  std::vector<rl::Transition> out(n);
  for (auto& t : out) {
    t.state = random_state(o, rng);
    t.next_state = random_state(o, rng);
    t.action = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(o.encoder.num_servers) - 1));
    t.reward_rate = rng.uniform(-2.0, 0.0);
    t.tau = rng.uniform(0.1, 5.0);
  }
  return out;
}

std::vector<const rl::Transition*> sample_batch(const std::vector<rl::Transition>& pool,
                                                std::size_t n, common::Rng& rng) {
  std::vector<const rl::Transition*> batch(n);
  for (auto& t : batch) {
    t = &pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }
  return batch;
}

// Test-side reference for GroupedQNetwork::train_batch: the per-sample loop
// over the public NN API, one sample at a time as a batch of one. It draws
// its networks from the network's seed in the core's order (autoencoder if
// K > 1, online Sub-Q, target Sub-Q). Per transition it encodes the groups,
// runs the K target heads, takes the argmax over all M, and applies a
// masked Huber loss and a per-sample backward; one clip and one Adam step
// follow the batch.
template <class S>
class PerSampleGroupedQReference {
 public:
  PerSampleGroupedQReference(const GroupedQOptions& opts, common::Rng& rng)
      : opts_(opts),
        autoencoder_(make_autoencoder(opts, rng)),
        online_(build_subq(opts, rng)),
        target_(build_subq(opts, rng)),
        params_(online_.params()),
        optimizer_(params_, nn::AdamOptions{.lr = opts.learning_rate}) {
    nn::copy_param_values(online_.params(), target_.params());
  }

  double train_batch(const std::vector<const rl::Transition*>& batch, double beta) {
    const auto& enc = opts_.encoder;
    optimizer_.zero_grad();
    const double inv_n = 1.0 / static_cast<double>(batch.size());
    double total_loss = 0.0;
    for (const rl::Transition* t : batch) {
      const std::vector<nn::VecT<S>> next_codes = encode(t->next_state);
      nn::VecT<S> q_next;
      for (std::size_t k = 0; k < enc.num_groups; ++k) {
        const nn::VecT<S> q =
            target_.predict_batch(row(head_input(t->next_state, k, next_codes))).row(0);
        q_next.insert(q_next.end(), q.begin(), q.end());
      }
      const double target = rl::smdp_target(t->reward_rate, t->tau, beta,
                                            static_cast<double>(q_next[nn::argmax(q_next)]));
      const std::size_t group = t->action / enc.group_size();
      const nn::VecT<S> pred =
          online_.forward_batch(row(head_input(t->state, group, encode(t->state)))).row(0);
      nn::reference::LossResultT<S> loss = nn::reference::masked_huber_loss(
          pred, t->action % enc.group_size(), static_cast<S>(target));
      total_loss += loss.value;
      nn::reference::scale_in_place(loss.grad, static_cast<S>(inv_n));
      online_.backward_batch(row(loss.grad), /*want_input_grad=*/false);
    }
    nn::clip_grad_norm(params_, opts_.grad_clip);
    optimizer_.step();
    return total_loss * inv_n;
  }

  /// Online Sub-Q then autoencoder, the order of GroupedQNetwork::param_values.
  std::vector<double> param_values() const {
    auto all = params_;
    if (autoencoder_) {
      const auto ae = autoencoder_->params();
      all.insert(all.end(), ae.begin(), ae.end());
    }
    return nn::flatten_param_values(all);
  }

 private:
  static std::unique_ptr<nn::AutoencoderT<S>> make_autoencoder(const GroupedQOptions& opts,
                                                               common::Rng& rng) {
    if (opts.encoder.num_groups == 1) return nullptr;
    nn::AutoencoderOptions ae;
    ae.encoder_dims = opts.autoencoder_dims;
    ae.learning_rate = opts.autoencoder_learning_rate;
    ae.grad_clip = opts.grad_clip;
    return std::make_unique<nn::AutoencoderT<S>>(opts.encoder.group_state_dim(), ae, rng);
  }

  static nn::NetworkT<S> build_subq(const GroupedQOptions& opts, common::Rng& rng) {
    const auto& enc = opts.encoder;
    const std::size_t in = enc.group_state_dim() + enc.job_state_dim() +
                           (enc.num_groups - 1) * opts.autoencoder_dims.back();
    nn::NetworkT<S> net;
    net.add_dense(in, opts.subq_hidden, nn::Activation::kElu, rng);
    net.add_dense(opts.subq_hidden, enc.group_size(), nn::Activation::kIdentity, rng);
    return net;
  }

  static nn::MatrixT<S> row(const nn::VecT<S>& x) { return nn::MatrixT<S>::from_row(x); }

  nn::VecT<S> slice(const nn::Vec& full_state, std::size_t begin, std::size_t n) const {
    nn::VecT<S> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<S>(full_state[begin + i]);
    return out;
  }

  /// One code per group, each encoded on its own (none at K = 1).
  std::vector<nn::VecT<S>> encode(const nn::Vec& full_state) const {
    std::vector<nn::VecT<S>> codes;
    if (!autoencoder_) return codes;
    const std::size_t g = opts_.encoder.group_state_dim();
    for (std::size_t k = 0; k < opts_.encoder.num_groups; ++k) {
      codes.push_back(autoencoder_->encode_batch(row(slice(full_state, k * g, g))).row(0));
    }
    return codes;
  }

  /// [g_group, s_j, codes of the other groups in group order].
  nn::VecT<S> head_input(const nn::Vec& full_state, std::size_t group,
                         const std::vector<nn::VecT<S>>& codes) const {
    const auto& enc = opts_.encoder;
    const std::size_t g = enc.group_state_dim();
    const std::size_t j = enc.job_state_dim();
    nn::VecT<S> in = slice(full_state, group * g, g);
    const nn::VecT<S> job = slice(full_state, full_state.size() - j, j);
    in.insert(in.end(), job.begin(), job.end());
    for (std::size_t k = 0; k < codes.size(); ++k) {
      if (k != group) in.insert(in.end(), codes[k].begin(), codes[k].end());
    }
    return in;
  }

  GroupedQOptions opts_;
  std::unique_ptr<nn::AutoencoderT<S>> autoencoder_;
  nn::NetworkT<S> online_;
  nn::NetworkT<S> target_;
  std::vector<nn::ParamBlockPtrT<S>> params_;
  nn::AdamT<S> optimizer_;
};

// Same seed + same minibatches => GroupedQNetwork::train_batch matches the
// per-sample reference in the loss of every step and in every parameter
// after 25 steps, at either precision (the accumulation-order argument is
// Scalar-independent). No target sync runs, so from the second step on the
// bootstrap targets come from a target copy that differs from the online one.
template <class S>
void expect_train_batch_matches_reference(std::size_t groups, nn::Precision precision) {
  const GroupedQOptions opts = parity_opts(groups, precision);
  common::Rng rng_a(4242), rng_b(4242);
  GroupedQNetwork net(opts, rng_a);
  PerSampleGroupedQReference<S> reference(opts, rng_b);

  common::Rng data(7);
  const std::vector<rl::Transition> pool = random_transitions(opts, 200, data);
  const double beta = 0.5;
  for (int step = 0; step < 25; ++step) {
    const auto batch = sample_batch(pool, 32, data);
    const double la = net.train_batch(batch, beta);
    const double lb = reference.train_batch(batch, beta);
    EXPECT_NEAR(la, lb, 1e-12) << "precision=" << nn::to_string(precision) << " K=" << groups
                               << " step " << step;
  }
  const std::vector<double> va = net.param_values();
  const std::vector<double> vb = reference.param_values();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_NEAR(va[i], vb[i], 1e-12) << "precision=" << nn::to_string(precision) << " K="
                                     << groups << " index " << i;
  }
}

TEST(BatchParity, GroupedQTrainBatchMatchesPerSampleReference) {
  for (const std::size_t groups : {1u, 3u}) {
    expect_train_batch_matches_reference<double>(groups, nn::Precision::kF64);
    expect_train_batch_matches_reference<float>(groups, nn::Precision::kF32);
  }
}

// f32-vs-f64 gate on the global tier's train step: two networks fed the
// identical minibatches, differing only in Scalar type, must agree on
// (almost all) greedy actions after a 25-step training run — the
// decision-level statement of "Q-learning is noise-tolerant".
TEST(PrecisionParity, GroupedQGreedyActionsAgreeAcrossPrecisionsAfterTraining) {
  for (const std::size_t groups : {1u, 3u}) {
    common::Rng rng_a(90210), rng_b(90210);
    GroupedQNetwork net64(parity_opts(groups, nn::Precision::kF64), rng_a);
    GroupedQNetwork net32(parity_opts(groups, nn::Precision::kF32), rng_b);

    const GroupedQOptions opts = parity_opts(groups, nn::Precision::kF64);
    common::Rng data(31);
    const std::vector<rl::Transition> pool = random_transitions(opts, 256, data);
    for (int step = 0; step < 25; ++step) {
      const auto batch = sample_batch(pool, 32, data);
      const double l64 = net64.train_batch(batch, 0.5);
      const double l32 = net32.train_batch(batch, 0.5);
      EXPECT_LE(std::abs(l64 - l32), 1e-3 * std::max(1.0, std::abs(l64)))
          << "K=" << groups << " step " << step;
    }

    common::Rng probe(777);
    int agree = 0;
    const int probes = 200;
    for (int i = 0; i < probes; ++i) {
      const nn::Vec s = random_state(opts, probe);
      agree += nn::argmax(net64.q_values(s)) == nn::argmax(net32.q_values(s)) ? 1 : 0;
    }
    // Ties between near-equal Q-values may flip under f32 rounding; anything
    // beyond a stray handful of states means the precisions diverged.
    EXPECT_GE(agree, probes * 95 / 100) << "K=" << groups << " agreement " << agree << "/"
                                        << probes;
  }
}

}  // namespace
}  // namespace hcrl::core
