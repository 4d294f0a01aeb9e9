// Micro-benchmarks (google-benchmark) supporting the paper's §V-B claim
// that the global tier's online complexity is low: one decision costs K
// autoencoder encodes + K Sub-Q forwards, i.e. microseconds per job arrival.
#include <benchmark/benchmark.h>

#include "src/core/predictor.hpp"
#include "src/core/qnetwork.hpp"
#include "src/core/state.hpp"
#include "src/nn/init.hpp"
#include "src/nn/lstm.hpp"
#include "src/rl/dqn.hpp"
#include "src/rl/smdp.hpp"
#include "src/rl/tabular_q.hpp"
#include "src/sim/cluster.hpp"
#include "src/telemetry/registry.hpp"
#include "src/workload/generator.hpp"

namespace {
using namespace hcrl;

void BM_MatrixVectorMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::Matrix m(n, n, 0.5);
  nn::Vec x(n, 1.0), y;
  for (auto _ : state) {
    m.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_MatrixVectorMultiply)->Arg(32)->Arg(128)->Arg(512);

// Single-sample loop vs one GEMM over the stacked batch: the core of the
// batched NN path. Items processed = multiply-accumulates, so the two
// counters are directly comparable.
void BM_MatrixVectorLoop_vs_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  common::Rng rng(3);
  nn::Matrix w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.uniform(-1.0, 1.0);
  nn::Vec x(n, 0.5), y;
  for (auto _ : state) {
    for (std::size_t b = 0; b < batch; ++b) {
      w.multiply(x, y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * n * n));
}
BENCHMARK(BM_MatrixVectorLoop_vs_Gemm)->Args({128, 32})->Args({512, 32});

void BM_GemmBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  common::Rng rng(3);
  nn::Matrix w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.uniform(-1.0, 1.0);
  nn::Matrix X(batch, n, 0.5), Y;
  for (auto _ : state) {
    nn::gemm_nt(X, w, Y);  // Y = X W^T: the batched Dense forward kernel
    benchmark::DoNotOptimize(Y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * n * n));
}
BENCHMARK(BM_GemmBatched)->Args({128, 32})->Args({512, 32});

// The precision x GEMM-thread grid of the f32 compute mode: the batched
// Dense forward kernel at float/double and 1/N intra-GEMM workers. Items
// processed = multiply-accumulates, directly comparable across all cells.
template <class S>
void run_gemm_grid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  common::Rng rng(3);
  nn::MatrixT<S> w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = static_cast<S>(rng.uniform(-1.0, 1.0));
  nn::MatrixT<S> X(batch, n, S(0.5)), Y;
  nn::set_gemm_threads(threads);
  for (auto _ : state) {
    nn::gemm_nt(X, w, Y);
    benchmark::DoNotOptimize(Y.data());
  }
  nn::set_gemm_threads(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * n * n));
}
// Cells with GEMM worker threads run on real time: CPU time counts only the
// main thread, which would overstate items/s.
void BM_GemmF64(benchmark::State& state) { run_gemm_grid<double>(state); }
BENCHMARK(BM_GemmF64)->Args({512, 32, 1})->Args({512, 512, 1});
BENCHMARK(BM_GemmF64)->Args({512, 32, 2})->Args({512, 512, 2})->Args({512, 512, 4})
    ->UseRealTime();
void BM_GemmF32(benchmark::State& state) { run_gemm_grid<float>(state); }
BENCHMARK(BM_GemmF32)->Args({512, 32, 1})->Args({512, 512, 1});
BENCHMARK(BM_GemmF32)->Args({512, 32, 2})->Args({512, 512, 2})->Args({512, 512, 4})
    ->UseRealTime();

// The acceptance benchmark for the batched path: one DQN SGD step on a
// 32-transition minibatch, per-sample loop vs batched GEMM path — and the
// precision/GEMM-thread grid of the f32 compute mode on the batched cell.
void run_dqn_train_step(benchmark::State& state, bool batched,
                        nn::Precision precision = nn::Precision::kF64,
                        std::size_t gemm_threads = 1) {
  common::Rng rng(11);
  rl::DqnAgent::Options o;
  o.hidden_dims = {128};
  o.batch_size = 32;
  o.min_replay_before_training = 64;
  o.train_interval = 1000000;  // train explicitly, not inside observe()
  o.target_sync_interval = 1000000;
  o.batched_train = batched;
  o.precision = precision;
  nn::set_gemm_threads(gemm_threads);
  const std::size_t state_dim = 24, n_actions = 30;
  rl::DqnAgent agent(state_dim, n_actions, o, rng);
  common::Rng data(12);
  for (int i = 0; i < 256; ++i) {
    rl::Transition t;
    t.state.resize(state_dim);
    t.next_state.resize(state_dim);
    for (auto& v : t.state) v = data.uniform(-1.0, 1.0);
    for (auto& v : t.next_state) v = data.uniform(-1.0, 1.0);
    t.action = static_cast<std::size_t>(
        data.uniform_int(0, static_cast<std::int64_t>(n_actions) - 1));
    t.reward_rate = -1.0;
    t.tau = 1.0;
    agent.observe(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.train_step());
  }
  nn::set_gemm_threads(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}

void BM_DqnTrainStepPerSample(benchmark::State& state) { run_dqn_train_step(state, false); }
BENCHMARK(BM_DqnTrainStepPerSample);

void BM_DqnTrainStepBatched(benchmark::State& state) { run_dqn_train_step(state, true); }
BENCHMARK(BM_DqnTrainStepBatched);

void BM_DqnTrainStepBatchedF32(benchmark::State& state) {
  run_dqn_train_step(state, true, nn::Precision::kF32);
}
BENCHMARK(BM_DqnTrainStepBatchedF32);

void BM_DqnTrainStepBatchedT2(benchmark::State& state) {
  run_dqn_train_step(state, true, nn::Precision::kF64, 2);
}
BENCHMARK(BM_DqnTrainStepBatchedT2)->UseRealTime();

void BM_DqnTrainStepBatchedF32T2(benchmark::State& state) {
  run_dqn_train_step(state, true, nn::Precision::kF32, 2);
}
BENCHMARK(BM_DqnTrainStepBatchedF32T2)->UseRealTime();

// Batched LSTM sweep vs running the same windows one at a time — the
// predictor's multi-window prediction path.
void BM_LstmWindowSweep(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::size_t lookback = 35, hidden = 30;  // paper's predictor shape
  common::Rng rng(4);
  auto params = std::make_shared<nn::LstmParams>(hidden, 1);
  nn::init_lstm(*params, rng);
  nn::Lstm lstm(params);
  std::vector<nn::Matrix> xs;
  for (std::size_t t = 0; t < lookback; ++t) {
    nn::Matrix x(batch, 1);
    for (std::size_t b = 0; b < batch; ++b) x(b, 0) = rng.uniform();
    xs.push_back(x);
  }
  for (auto _ : state) {
    if (batch == 1) {
      // per-sample: each window walked separately
      for (std::size_t w = 0; w < 8; ++w) {
        lstm.reset();
        for (const auto& x : xs) benchmark::DoNotOptimize(lstm.step({x(0, 0)}).data());
      }
    } else {
      lstm.reset_batch(batch);
      for (const auto& x : xs) benchmark::DoNotOptimize(lstm.step_batch(x).data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lookback * (batch == 1 ? 8 : batch)));
}
BENCHMARK(BM_LstmWindowSweep)->Arg(1)->Arg(8);

// Precision x GEMM-thread grid on the batched LSTM sweep (the predictor's
// multi-window path): `batch` windows through the stacked-gate GEMMs, on
// the inference path (keep_cache=false) that predict_windows actually runs.
template <class S>
void run_lstm_sweep_grid(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t lookback = 35, hidden = 30;  // paper's predictor shape
  common::Rng rng(4);
  auto params = std::make_shared<nn::LstmParamsT<S>>(hidden, 1);
  nn::init_lstm(*params, rng);
  nn::LstmT<S> lstm(params);
  std::vector<nn::MatrixT<S>> xs;
  for (std::size_t t = 0; t < lookback; ++t) {
    nn::MatrixT<S> x(batch, 1);
    for (std::size_t b = 0; b < batch; ++b) x(b, 0) = static_cast<S>(rng.uniform());
    xs.push_back(x);
  }
  nn::set_gemm_threads(threads);
  for (auto _ : state) {
    lstm.reset_batch(batch);
    for (const auto& x : xs) {
      benchmark::DoNotOptimize(lstm.step_batch(x, /*keep_cache=*/false).data());
    }
  }
  nn::set_gemm_threads(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lookback * batch));
}
void BM_LstmSweepF64(benchmark::State& state) { run_lstm_sweep_grid<double>(state); }
BENCHMARK(BM_LstmSweepF64)->Args({8, 1})->Args({32, 1});
BENCHMARK(BM_LstmSweepF64)->Args({32, 2})->UseRealTime();
void BM_LstmSweepF32(benchmark::State& state) { run_lstm_sweep_grid<float>(state); }
BENCHMARK(BM_LstmSweepF32)->Args({8, 1})->Args({32, 1});
BENCHMARK(BM_LstmSweepF32)->Args({32, 2})->UseRealTime();

void BM_GroupedQInference(benchmark::State& state) {
  common::Rng rng(1);
  core::GroupedQOptions o;
  o.encoder.num_servers = static_cast<std::size_t>(state.range(0));
  o.encoder.num_groups = o.encoder.num_servers % 3 == 0 ? 3 : 2;
  core::GroupedQNetwork net(o, rng);
  nn::Vec s(o.encoder.full_state_dim());
  for (auto& v : s) v = rng.uniform();
  for (auto _ : state) {
    auto q = net.q_values(s);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_GroupedQInference)->Arg(30)->Arg(40)->Arg(60);

void BM_LstmStep(benchmark::State& state) {
  common::Rng rng(2);
  auto params = std::make_shared<nn::LstmParams>(30, 1);  // paper's 30 hidden units
  nn::init_lstm(*params, rng);
  nn::Lstm lstm(params);
  const nn::Vec x = {0.5};
  for (auto _ : state) {
    auto h = lstm.step(x);
    benchmark::DoNotOptimize(h.data());
    if (lstm.cached_steps() > 64) lstm.reset();
  }
}
BENCHMARK(BM_LstmStep);

void BM_SmdpUpdate(benchmark::State& state) {
  rl::TabularQAgent::Options o;
  rl::TabularQAgent agent(7, 5, o);
  std::size_t s = 0;
  for (auto _ : state) {
    agent.update(s, s % 5, -1.0, 10.0, (s + 1) % 7);
    s = (s + 1) % 7;
  }
}
BENCHMARK(BM_SmdpUpdate);

void BM_SmdpTargetMath(benchmark::State& state) {
  double acc = 0.0;
  double tau = 0.1;
  for (auto _ : state) {
    acc += rl::smdp_target(-1.5, tau, 0.05, acc * 1e-9);
    tau += 1e-7;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SmdpTargetMath);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // End-to-end event processing rate of the cluster engine under the
  // round-robin baseline (no learning overhead).
  workload::GeneratorOptions g;
  g.num_jobs = 5000;
  g.horizon_s = 5000.0 * 6.4;
  const auto jobs = workload::GoogleTraceGenerator(g).generate();
  std::int64_t total_events = 0;
  for (auto _ : state) {
    sim::RoundRobinAllocator alloc;
    sim::AlwaysOnPolicy power;
    sim::ClusterConfig cfg;
    cfg.num_servers = 30;
    cfg.keep_job_records = false;
    sim::Cluster cluster(cfg, alloc, power);
    cluster.load_jobs(jobs);
    while (cluster.step()) ++total_events;
  }
  state.SetItemsProcessed(total_events);
}
BENCHMARK(BM_SimulatorEventThroughput)->Unit(benchmark::kMillisecond);

// A non-learning fleet trace at the paper's per-server arrival rate (95,000
// jobs a week per 30 servers), as bench_e2e's fleet workloads use.
std::vector<sim::Job> fleet_trace(std::size_t servers, std::size_t jobs) {
  workload::GeneratorOptions g;
  g.num_jobs = jobs;
  g.horizon_s = sim::kSecondsPerWeek * static_cast<double>(jobs) / 95000.0 * 30.0 /
                static_cast<double>(servers);
  g.seed = 13;
  return workload::GoogleTraceGenerator(g).generate();
}

// The engine cells run one 1000-server, 100k-job trace under round-robin +
// 60 s fixed timeout through the Cluster engine, with telemetry off
// (BM_EngineSerial) or fully on (BM_TelemetryEngineSerial: the per-event
// counters and flush instrumentation). Items/s == trace jobs/s.
constexpr std::size_t kEngineServers = 1000;
constexpr std::size_t kEngineJobs = 100000;

void run_engine_trace(benchmark::State& state, bool telemetry_on) {
  const auto jobs = fleet_trace(kEngineServers, kEngineJobs);
  telemetry::set_enabled(telemetry_on);
  for (auto _ : state) {
    sim::RoundRobinAllocator alloc;
    sim::FixedTimeoutPolicy power(60.0);
    sim::ClusterConfig cfg;
    cfg.num_servers = kEngineServers;
    cfg.keep_job_records = false;
    sim::Cluster cluster(cfg, alloc, power);
    cluster.load_jobs(jobs);
    cluster.run();
    benchmark::DoNotOptimize(cluster.snapshot().energy_joules);
  }
  telemetry::set_enabled(false);
  telemetry::global_registry().reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * jobs.size()));
}

void BM_EngineSerial(benchmark::State& state) { run_engine_trace(state, false); }
BENCHMARK(BM_EngineSerial)->Unit(benchmark::kMillisecond);

void BM_TelemetryEngineSerial(benchmark::State& state) { run_engine_trace(state, true); }
BENCHMARK(BM_TelemetryEngineSerial)->Unit(benchmark::kMillisecond);

// One best-fit placement scan over a mid-run cluster of `servers` machines
// (best-fit + 60 s timeout, stopped after half the trace completed, so awake,
// idle and sleeping servers mix). Items/s == placement decisions/s.
void BM_BestFitSelect(benchmark::State& state) {
  const auto servers = static_cast<std::size_t>(state.range(0));
  const auto jobs = fleet_trace(servers, 40 * servers);
  sim::BestFitAllocator alloc;
  sim::FixedTimeoutPolicy power(60.0);
  sim::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.keep_job_records = false;
  sim::Cluster cluster(cfg, alloc, power);
  cluster.load_jobs(jobs);
  cluster.run_until_completed(jobs.size() / 2);
  const sim::Job& probe = jobs[jobs.size() / 2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(alloc.select_server(cluster, probe));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BestFitSelect)->Arg(500);

void BM_TelemetryCounter(benchmark::State& state) {
  // Cost of the telemetry::count hot helper, disabled (arg 0: the tax every
  // instrumentation site pays in a normal run — a relaxed load + branch) and
  // enabled (arg 1: relaxed fetch_add on the thread's shard slab).
  const bool on = state.range(0) != 0;
  telemetry::set_enabled(on);
  const telemetry::MetricId id = telemetry::global_registry().counter("bench.telemetry_counter");
  for (auto _ : state) {
    telemetry::count(id);
  }
  telemetry::set_enabled(false);
  telemetry::global_registry().reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryCounter)->Arg(0)->Arg(1);

void BM_StateEncoding(benchmark::State& state) {
  core::StateEncoderOptions o;
  o.num_servers = 30;
  o.num_groups = 3;
  core::StateEncoder enc(o);
  sim::RoundRobinAllocator alloc;
  sim::AlwaysOnPolicy power;
  sim::ClusterConfig cfg;
  cfg.num_servers = 30;
  sim::Cluster cluster(cfg, alloc, power);
  sim::Job job;
  job.id = 1;
  job.duration = 100.0;
  job.demand = sim::ResourceVector{0.1, 0.1, 0.01};
  for (auto _ : state) {
    auto s = enc.full_state(cluster, job);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_StateEncoding);

}  // namespace

BENCHMARK_MAIN();
