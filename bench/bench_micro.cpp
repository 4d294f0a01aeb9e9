// Micro-benchmarks (google-benchmark) supporting the paper's §V-B claim
// that the global tier's online complexity is low: one decision costs K
// autoencoder encodes + K Sub-Q forwards, i.e. microseconds per job arrival.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/core/predictor.hpp"
#include "src/core/qnetwork.hpp"
#include "src/core/scenario.hpp"
#include "src/core/state.hpp"
#include "src/nn/init.hpp"
#include "src/nn/lstm.hpp"
#include "src/rl/replay.hpp"
#include "src/rl/smdp.hpp"
#include "src/rl/tabular_q.hpp"
#include "src/sim/cluster.hpp"
#include "src/telemetry/registry.hpp"
#include "src/workload/generator.hpp"

namespace {
using namespace hcrl;

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

// The precision grid of the f32 compute mode: the batched Dense forward
// kernel at float/double. Items processed = multiply-accumulates, directly
// comparable across all cells.
template <class S>
void run_gemm_grid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  common::Rng rng(3);
  nn::MatrixT<S> w(n, n);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = static_cast<S>(rng.uniform(-1.0, 1.0));
  nn::MatrixT<S> X(batch, n, S(0.5)), Y;
  for (auto _ : state) {
    nn::gemm_nt(X, w, Y);
    benchmark::DoNotOptimize(Y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * n * n));
}
void BM_GemmF64(benchmark::State& state) { run_gemm_grid<double>(state); }
BENCHMARK(BM_GemmF64)->Args({512, 32})->Args({512, 512});
void BM_GemmF32(benchmark::State& state) { run_gemm_grid<float>(state); }
BENCHMARK(BM_GemmF32)->Args({512, 32})->Args({512, 512});

// Precision grid on a batched LSTM sweep: `batch` 35-step windows through
// the stacked-gate GEMMs on the inference path (keep_cache=false). The
// predictor itself runs batch 1 (see BM_LstmPredictor*).
template <class S>
void run_lstm_sweep_grid(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
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
  for (auto _ : state) {
    lstm.reset_batch(batch);
    for (const auto& x : xs) {
      benchmark::DoNotOptimize(lstm.step_batch(x, /*keep_cache=*/false).data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lookback * batch));
}
void BM_LstmSweepF64(benchmark::State& state) { run_lstm_sweep_grid<double>(state); }
BENCHMARK(BM_LstmSweepF64)->Arg(8)->Arg(32);
void BM_LstmSweepF32(benchmark::State& state) { run_lstm_sweep_grid<float>(state); }
BENCHMARK(BM_LstmSweepF32)->Arg(8)->Arg(32);

// The local tier's per-server predictor at the paper's shape (35-step
// look-back, 30 hidden units, Adam), warmed up on 256 observed gaps and 64
// training windows. TrainWindow is one BPTT + Adam step on a window drawn
// from the history; Predict is one batch-1 sweep over the latest window.
std::unique_ptr<core::LstmPredictor> warmed_up_predictor(nn::Precision precision) {
  core::LstmPredictorOptions o;
  o.precision = precision;
  o.train_interval = 1u << 30;  // the benches drive training themselves
  auto p = std::make_unique<core::LstmPredictor>(o);
  common::Rng rng(12);
  for (int i = 0; i < 256; ++i) p->observe(rng.exponential(1.0 / 120.0));
  for (std::size_t end = o.lookback; end < o.lookback + 64; ++end) p->train_window(end);
  return p;
}

void run_predictor_train_window(benchmark::State& state, nn::Precision precision) {
  const auto p = warmed_up_predictor(precision);
  const std::size_t first = p->options().lookback;
  const std::size_t span = p->observations() - first;
  std::size_t w = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->train_window(first + w));
    w = (w + 37) % span;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_LstmPredictorTrainWindowF64(benchmark::State& state) {
  run_predictor_train_window(state, nn::Precision::kF64);
}
BENCHMARK(BM_LstmPredictorTrainWindowF64);
void BM_LstmPredictorTrainWindowF32(benchmark::State& state) {
  run_predictor_train_window(state, nn::Precision::kF32);
}
BENCHMARK(BM_LstmPredictorTrainWindowF32);

void run_predictor_predict(benchmark::State& state, nn::Precision precision) {
  const auto p = warmed_up_predictor(precision);
  for (auto _ : state) benchmark::DoNotOptimize(p->predict());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_LstmPredictorPredictF64(benchmark::State& state) {
  run_predictor_predict(state, nn::Precision::kF64);
}
BENCHMARK(BM_LstmPredictorPredictF64);
void BM_LstmPredictorPredictF32(benchmark::State& state) {
  run_predictor_predict(state, nn::Precision::kF32);
}
BENCHMARK(BM_LstmPredictorPredictF32);

// The paper shape's Q-network options for M servers, with K chosen as the
// paper workloads choose it (core::paper_experiment_config: 30 -> 3, 40 -> 4).
core::GroupedQOptions paper_qnet_options(std::size_t servers, nn::Precision precision) {
  core::GroupedQOptions o;
  o.encoder.num_servers = servers;
  o.encoder.num_groups = core::paper_experiment_config(servers, 0).num_groups;
  o.precision = precision;
  return o;
}

void BM_GroupedQInference(benchmark::State& state) {
  common::Rng rng(1);
  const core::GroupedQOptions o =
      paper_qnet_options(static_cast<std::size_t>(state.range(0)), nn::Precision::kF64);
  core::GroupedQNetwork net(o, rng);
  nn::Vec s(o.encoder.full_state_dim());
  for (auto& v : s) v = rng.uniform();
  for (auto _ : state) {
    auto q = net.q_values(s);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_GroupedQInference)->Arg(30)->Arg(40)->Arg(60);

// The global tier's DQN step: one GroupedQNetwork::train_batch of 32
// transitions sampled from a filled replay, at the two bench_e2e paper
// shapes (paper-hier-m30: M = 30, K = 3 at f64; paper-drl-m40-f32: M = 40,
// K = 4 at f32).
void run_grouped_q_train_step(benchmark::State& state, std::size_t servers,
                              nn::Precision precision) {
  common::Rng rng(5);
  const core::GroupedQOptions o = paper_qnet_options(servers, precision);
  core::GroupedQNetwork net(o, rng);
  rl::ReplayBuffer<rl::Transition> replay(4096);
  common::Rng data(6);
  for (int i = 0; i < 4096; ++i) {
    rl::Transition t;
    t.state.resize(o.encoder.full_state_dim());
    t.next_state.resize(o.encoder.full_state_dim());
    for (auto& v : t.state) v = data.uniform();
    for (auto& v : t.next_state) v = data.uniform();
    t.action = static_cast<std::size_t>(
        data.uniform_int(0, static_cast<std::int64_t>(servers) - 1));
    t.reward_rate = data.uniform(-2.0, 0.0);
    t.tau = data.exponential(0.2);
    replay.push(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.train_batch(replay.sample(32, data), 0.05));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
void BM_GroupedQTrainStepF64(benchmark::State& state) {
  run_grouped_q_train_step(state, 30, nn::Precision::kF64);
}
BENCHMARK(BM_GroupedQTrainStepF64);
void BM_GroupedQTrainStepF32(benchmark::State& state) {
  run_grouped_q_train_step(state, 40, nn::Precision::kF32);
}
BENCHMARK(BM_GroupedQTrainStepF32);

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
BENCHMARK(BM_BestFitSelect)->Arg(100)->Arg(500)->Arg(1000);

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
