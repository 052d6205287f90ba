// The executable pipeline runtime's contract (src/train/pipeline_runtime.h):
// running a real BertModel under any registered flush schedule, at any
// stage/worker/thread count, is BITWISE identical to the serial Trainer
// with accumulation_steps = n_micro — losses and parameters. Plus the
// realized mechanics: stage-channel handover order, executed-vs-planned op
// order, the executed Timeline, and bubble-dispatched K-FAC work.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "src/common/strings.h"
#include "src/common/task_executor.h"
#include "src/common/thread_pool.h"
#include "src/optim/lamb.h"
#include "src/pipeline/simulator.h"
#include "src/train/pipeline_runtime.h"
#include "tests/support/bert_reference.h"

namespace pf {
namespace {

BertConfig small_bert(std::size_t n_layers = 4) {
  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = n_layers;
  cfg.seq_len = 12;
  return cfg;
}

struct Corpus {
  SyntheticCorpus corpus;
  MlmBatcher batcher;
  explicit Corpus(const BertConfig& cfg)
      : corpus([&] {
          CorpusConfig cc;
          cc.vocab = cfg.vocab;
          return cc;
        }()),
        batcher(corpus, [&] {
          MlmBatcherConfig bc;
          bc.seq_len = cfg.seq_len;
          return bc;
        }()) {}
};

struct RunResult {
  std::vector<double> losses;
  std::vector<std::vector<double>> params;  // copied parameter values
};

// `ctx` threads the trainer and its K-FAC optimizer.
RunResult serial_reference(const BertConfig& cfg, int n_micro,
                           std::size_t micro_batch, std::size_t steps,
                           bool use_kfac, const ExecContext& ctx = {}) {
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  TrainerConfig tc;
  tc.exec = ctx;
  tc.batch_size = micro_batch;
  tc.accumulation_steps = static_cast<std::size_t>(n_micro);
  tc.total_steps = steps;
  tc.schedule = PolyWarmupSchedule(1e-2, 0, steps);
  std::unique_ptr<Optimizer> opt;
  if (use_kfac) {
    KfacOptimizerOptions o;
    o.inverse_interval = 3;
    o.per_micro_curvature = true;  // the paper's (and the runtime's) mode
    opt = std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                          std::make_unique<Lamb>(), o, ctx);
  } else {
    opt = std::make_unique<Lamb>();
  }
  Trainer trainer(model, data.batcher, std::move(opt), tc);
  const auto trace = trainer.run();
  RunResult r;
  r.losses = trace.loss;
  for (Param* p : model.params()) {
    std::vector<double> w(p->w.data(), p->w.data() + p->w.size());
    r.params.push_back(std::move(w));
  }
  return r;
}

PipelineRuntimeConfig runtime_config(const std::string& schedule, int stages,
                                     int n_micro, std::size_t micro_batch,
                                     std::size_t steps, bool use_kfac,
                                     int workers, int stage_threads) {
  PipelineRuntimeConfig pc;
  pc.schedule = schedule;
  pc.n_stages = stages;
  pc.n_micro = n_micro;
  pc.micro_batch_size = micro_batch;
  pc.total_steps = steps;
  pc.lr = PolyWarmupSchedule(1e-2, 0, steps);
  pc.workers = workers;
  pc.stage_threads = stage_threads;
  pc.use_kfac = use_kfac;
  pc.kfac.inverse_interval = 3;
  return pc;
}

RunResult pipeline_run(const BertConfig& cfg, const PipelineRuntimeConfig& pc,
                       PipelineRuntime** out_rt = nullptr,
                       BertModel** out_model = nullptr) {
  // A kept runtime must keep its model AND corpus alive too — the runtime
  // holds references to both, so preserving only the runtime would leave
  // it over freed memory.
  struct KeptRun {
    std::unique_ptr<BertModel> model;
    std::unique_ptr<Corpus> data;
    std::unique_ptr<PipelineRuntime> rt;
  };
  static std::vector<KeptRun> kept;
  Rng rng(7);
  auto model = std::make_unique<BertModel>(cfg, rng);
  auto data = std::make_unique<Corpus>(cfg);
  auto rt = std::make_unique<PipelineRuntime>(*model, data->batcher, pc);
  const auto trace = rt->run();
  RunResult r;
  r.losses = trace.loss;
  for (Param* p : model->params()) {
    std::vector<double> w(p->w.data(), p->w.data() + p->w.size());
    r.params.push_back(std::move(w));
  }
  if (out_rt != nullptr || out_model != nullptr) {
    if (out_rt != nullptr) *out_rt = rt.get();
    if (out_model != nullptr) *out_model = model.get();
    kept.push_back(
        KeptRun{std::move(model), std::move(data), std::move(rt)});
  }
  return r;
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    ASSERT_EQ(a.losses[i], b.losses[i]) << label << " loss step " << i;
  ASSERT_EQ(a.params.size(), b.params.size()) << label;
  for (std::size_t p = 0; p < a.params.size(); ++p) {
    ASSERT_EQ(a.params[p].size(), b.params[p].size()) << label;
    for (std::size_t i = 0; i < a.params[p].size(); ++i)
      ASSERT_EQ(a.params[p][i], b.params[p][i])
          << label << " param " << p << " elem " << i;
  }
}

// --- The headline contract ------------------------------------------------

TEST(PipelineRuntime, KfacBitwiseEqualsSerialAcrossSchedulesAndStages) {
  const auto cfg = small_bert(4);
  const int n_micro = 4;
  const std::size_t micro_batch = 4, steps = 5;
  const auto ref = serial_reference(cfg, n_micro, micro_batch, steps, true);
  struct Case {
    const char* schedule;
    int stages;
  };
  for (const Case c : {Case{"gpipe", 2}, Case{"gpipe", 4}, Case{"1f1b", 2},
                       Case{"1f1b", 4}, Case{"interleaved-1f1b", 2},
                       Case{"chimera", 2}, Case{"chimera", 4}}) {
    const auto pr = pipeline_run(
        cfg, runtime_config(c.schedule, c.stages, n_micro, micro_batch,
                            steps, true, /*workers=*/2, /*stage_threads=*/1));
    expect_bitwise_equal(ref, pr,
                         format("%s D=%d", c.schedule, c.stages));
  }
}

TEST(PipelineRuntime, BitwiseInvariantToWorkersAndStageThreads) {
  const auto cfg = small_bert(4);
  const int n_micro = 4;
  const std::size_t micro_batch = 4, steps = 4;
  const auto ref = serial_reference(cfg, n_micro, micro_batch, steps, true);
  for (const int workers : {0, 1, 4}) {
    for (const int threads : {1, 2}) {
      const auto pr = pipeline_run(
          cfg, runtime_config("1f1b", 4, n_micro, micro_batch, steps, true,
                              workers, threads));
      expect_bitwise_equal(
          ref, pr, format("workers=%d stage_threads=%d", workers, threads));
    }
  }
}

TEST(PipelineRuntime, BubbleKfacSpendsTheStageThreadsBitwiseNeutrally) {
  // A stage's K-FAC tasks run under the stage's context, as the serial
  // KfacOptimizer runs under the one it is given: a serial reference whose
  // trainer and optimizer fan out 3 ways on a pool equals the runtime at
  // stage_threads 3.
  const auto cfg = small_bert(4);
  const int n_micro = 4;
  const std::size_t micro_batch = 4, steps = 4;
  ThreadPool pool(3);
  const auto ref = serial_reference(cfg, n_micro, micro_batch, steps, true,
                                    ExecContext(3, 3, &pool));
  const auto pr = pipeline_run(
      cfg, runtime_config("1f1b", 4, n_micro, micro_batch, steps, true,
                          /*workers=*/2, /*stage_threads=*/3));
  expect_bitwise_equal(ref, pr, "stage_threads=3");
}

TEST(PipelineRuntime, LambOnlyModeBitwiseEqualsSerial) {
  const auto cfg = small_bert(2);
  const int n_micro = 6;
  const std::size_t micro_batch = 4, steps = 4;
  const auto ref = serial_reference(cfg, n_micro, micro_batch, steps, false);
  const auto pr = pipeline_run(
      cfg, runtime_config("1f1b", 2, n_micro, micro_batch, steps, false,
                          /*workers=*/2, /*stage_threads=*/1));
  expect_bitwise_equal(ref, pr, "lamb 1f1b D=2");
}

TEST(PipelineRuntime, RelayStagesKeepTheContractOnShallowModels) {
  // interleaved-1f1b on a 2-block model cuts D·V = 4 virtual stages; two
  // of them own zero blocks and act as relays.
  const auto cfg = small_bert(2);
  const int n_micro = 4;
  const std::size_t micro_batch = 4, steps = 3;
  const auto ref = serial_reference(cfg, n_micro, micro_batch, steps, true);
  auto pc = runtime_config("interleaved-1f1b", 2, n_micro, micro_batch,
                           steps, true, 2, 1);
  pc.virtual_chunks = 2;
  const auto pr = pipeline_run(cfg, pc);
  expect_bitwise_equal(ref, pr, "interleaved relay stages");
}

TEST(PipelineRuntime, PoolRecyclesStashesAndLambStashesOnlyForwards) {
  // By the last step the storage pool serves every stage's tasks recycled
  // storage. A LAMB step plans no reader for the K-FAC buffers, so its
  // stash peak is exactly its in-flight forward entries: 1f1b keeps S - s
  // micros in flight on stage s. A K-FAC step holds the same entries plus
  // the pairs whose curvature tasks have not run yet — how many depends on
  // timing, at most all n_micro.
  const auto cfg = small_bert(4);
  const int S = 2, N = 4;
  auto pc = runtime_config("1f1b", S, N, 4, 3, true, 2, 1);
  PipelineRuntime* rt = nullptr;
  pipeline_run(cfg, pc, &rt);
  auto lamb_pc = runtime_config("1f1b", S, N, 4, 3, false, 2, 1);
  PipelineRuntime* lamb_rt = nullptr;
  pipeline_run(cfg, lamb_pc, &lamb_rt);

  // One micro's forward entry and harvested pair per stage, measured on a
  // partition driven by hand.
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  Rng drng(17);
  const auto batch = data.batcher.next_batch(4, drng);
  const ExecContext ctx;
  BertStagePartition part(model, S);
  std::vector<std::size_t> fwd(S), pair(S);
  Matrix h;
  for (int s = 0; s < S; ++s) {
    part.stage(s).begin_step({.curvature = true});
    h = part.stage(s).forward(0, batch, std::move(h), ctx);
    fwd[s] = part.stage(s).stash_bytes();
  }
  for (int s = S; s-- > 0;) {
    h = part.stage(s).backward(0, batch, std::move(h), ctx);
    pair[s] = part.stage(s).stash_bytes();
  }

  for (int s = 0; s < S; ++s) {
    const auto& ms = rt->memory_stats()[static_cast<std::size_t>(s)];
    const auto& lamb = lamb_rt->memory_stats()[static_cast<std::size_t>(s)];
    EXPECT_GT(ms.arena_recycled, 0u) << "stage " << s;
    EXPECT_GT(lamb.arena_recycled, 0u) << "stage " << s;
    const std::size_t in_flight = static_cast<std::size_t>(S - s);
    EXPECT_EQ(lamb.peak_stash_bytes, in_flight * fwd[s]) << "stage " << s;
    EXPECT_GE(ms.peak_stash_bytes, lamb.peak_stash_bytes) << "stage " << s;
    EXPECT_LE(ms.peak_stash_bytes,
              lamb.peak_stash_bytes + static_cast<std::size_t>(N) * pair[s])
        << "stage " << s;
  }
}

TEST(PipelineRuntime, LiveStorageStopsChangingAfterWarmup) {
  // Every buffer a step allocates for its activations, caches and stashes
  // is freed by the step's end, so once the first steps have built the
  // parameters' optimizer state and the K-FAC factors, the storage pool's
  // live bytes at each step boundary stop changing (linalg/matrix.h). That
  // reading does not depend on timing: the order in which tasks allocate
  // and free decides which blocks the pool hands out fresh (zb-h1 frees
  // its W stashes mid-step, racing the forwards), not what is live once
  // the step is done. A stage that keeps one more buffer each step — a
  // stash entry never cleared — raises it every step. The vocabulary is
  // smaller than d_model, as at the benchmark shape.
  BertConfig cfg = small_bert(4);
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.vocab = 24;
  for (const char* schedule : {"1f1b", "zb-h1"}) {
    for (const bool kfac : {false, true}) {
      Rng rng(7);
      BertModel model(cfg, rng);
      Corpus data(cfg);
      PipelineRuntime rt(model, data.batcher,
                         runtime_config(schedule, 4, 8, 4, 12, kfac,
                                        /*workers=*/2, /*stage_threads=*/1));
      std::size_t warm = 0;
      for (int step = 1; step <= 12; ++step) {
        rt.step();
        const std::size_t live = storage_pool_bytes().live;
        if (step == 3) warm = live;
        if (step > 3)
          EXPECT_EQ(live, warm)
              << schedule << (kfac ? " kfac" : " lamb") << " step " << step;
      }
    }
  }
}

// Runs one step of `plan` on `part` serially in plan order, with no
// timing in it: the F/B ops in their per-stage program order, then every
// curvature read — the latest a K-FAC task can run, so each stage peaks
// holding all its micros' pairs. Returns each stage's stash high-water
// mark; end_step() then finds every stash drained.
std::vector<std::size_t> run_plan_reads_last(
    BertStagePartition& part, const StepPlan& plan,
    const std::vector<BertBatch>& batches) {
  const ExecContext ctx;
  const int S = part.n_stages();
  for (int s = 0; s < S; ++s) part.stage(s).begin_step({.curvature = true});
  std::map<std::pair<int, int>, Matrix> out;  // (stage, micro) -> boundary
  std::vector<const PlannedTask*> reads;
  for (const PlannedTask& t : plan.tasks) {
    BertStage& st = part.stage(t.stage);
    if (t.kind == WorkKind::kForward) {
      Matrix in;
      if (t.stage > 0) in = std::move(out.at({t.stage - 1, t.micro}));
      out[{t.stage, t.micro}] = st.forward(
          t.micro, batches[static_cast<std::size_t>(t.micro)], std::move(in),
          ctx);
    } else if (t.kind == WorkKind::kBackward) {
      Matrix g;
      if (t.stage + 1 < S) g = std::move(out.at({t.stage + 1, t.micro}));
      out[{t.stage, t.micro}] = st.backward(
          t.micro, batches[static_cast<std::size_t>(t.micro)], std::move(g),
          ctx);
    } else if (t.kind == WorkKind::kCurvatureA ||
               t.kind == WorkKind::kCurvatureB) {
      reads.push_back(&t);
    }
  }
  std::vector<std::size_t> peaks;
  for (int s = 0; s < S; ++s) peaks.push_back(part.stage(s).peak_stash_bytes());
  for (const PlannedTask* t : reads) {
    const auto f = static_cast<std::size_t>(t->layer * 6 + t->factor);
    if (t->kind == WorkKind::kCurvatureA)
      part.stage(t->stage).kfac_input_done(t->micro, f);
    else
      part.stage(t->stage).kfac_output_grad_done(t->micro, f);
  }
  for (int s = 0; s < S; ++s) {
    EXPECT_EQ(part.stage(s).stash_bytes(), 0u) << "stage " << s;
    part.stage(s).end_step();
  }
  return peaks;
}

TEST(PipelineRuntime, AttentionStashesOneInputPerBlockAndMicro) {
  // wk and wv read wq's input, so every stash — forward, K-FAC, and the
  // deferred-W one — holds each block input once per micro instead of
  // three times. At 1 block per stage, 8 micros of 4 × 12 tokens and
  // d_model 32, a 1f1b step whose curvature reads all come after the last
  // backward peaks with every micro's pair held: 2 copies × 8 micros ×
  // 48 × 32 doubles = 196,608 bytes below the three-copy layout's
  // 1,417,728 / 1,406,208 / 1,396,224 / 1,418,112 per stage. The last
  // stage holds 9,280 bytes less again: its backward frees the heads'
  // e_l (48 × 24 + 4 × 2 doubles), which that layout's forward entries
  // carried over from the micro before.
  BertConfig cfg = small_bert(4);
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.vocab = 24;
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  const int S = 4, N = 8;
  BertStagePartition part(model, S);
  const ScheduleSpec spec = build_schedule("1f1b", {S, N, 1});
  std::vector<std::vector<std::size_t>> owners;
  for (int s = 0; s < S; ++s)
    owners.push_back(part.stage(s).kfac_input_owners());
  const StepPlan plan =
      build_step_plan(spec, plan_device_order(spec), KfacFactors(owners),
                      /*curv_step=*/true, /*inv_step=*/false);
  const std::size_t two_copies = 2 * 8 * (4 * 12) * 32 * sizeof(double);
  const std::size_t stale_head_dy = (48 * 24 + 4 * 2) * sizeof(double);
  const std::vector<std::size_t> three_copy = {1417728, 1406208, 1396224,
                                               1418112};
  std::vector<std::size_t> want;
  for (const std::size_t b : three_copy) want.push_back(b - two_copies);
  want.back() -= stale_head_dy;
  Rng drng(17);
  for (int step = 0; step < 2; ++step) {
    std::vector<BertBatch> batches;
    for (int m = 0; m < N; ++m)
      batches.push_back(data.batcher.next_batch(4, drng));
    const auto peaks = run_plan_reads_last(part, plan, batches);
    EXPECT_EQ(peaks, want) << "step " << step;
  }
}

TEST(PipelineRuntime, AttentionPlansOneCurvatureAChainPerBlock) {
  // Per block the plan folds 4 curvature-A chains (wq, wo, w1, w2) and 6
  // curvature-B chains, one task per micro each; wk's and wv's commits
  // depend on wq's, whose A factor they take.
  const auto cfg = small_bert(4);
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  const int S = 2, N = 4;
  PipelineRuntime rt(model, data.batcher,
                     runtime_config("1f1b", S, N, 2, 1, true, 2, 1));
  const StepPlan plan = rt.make_step_plan(true, true);
  using Block = std::pair<int, int>;  // (stage, layer)
  std::map<Block, std::map<int, int>> a_tasks, b_tasks;  // factor -> count
  std::map<std::tuple<int, int, int>, std::size_t> commit;
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    const PlannedTask& t = plan.tasks[i];
    const Block blk{t.stage, t.layer};
    if (t.kind == WorkKind::kCurvatureA) ++a_tasks[blk][t.factor];
    if (t.kind == WorkKind::kCurvatureB) ++b_tasks[blk][t.factor];
    if (t.kind == WorkKind::kSyncCurvature)
      commit[{t.stage, t.layer, t.factor}] = i;
  }
  const std::map<int, int> a_want = {{0, N}, {3, N}, {4, N}, {5, N}};
  const std::map<int, int> b_want = {{0, N}, {1, N}, {2, N},
                                     {3, N}, {4, N}, {5, N}};
  ASSERT_EQ(b_tasks.size(), cfg.n_layers);
  for (const auto& [blk, counts] : b_tasks) {
    const std::string where = format("stage %d block %d", blk.first,
                                     blk.second);
    EXPECT_EQ(counts, b_want) << where;
    EXPECT_EQ(a_tasks[blk], a_want) << where;
    const std::size_t wq = commit.at({blk.first, blk.second, 0});
    for (const int f : {1, 2}) {
      const auto& deps =
          plan.tasks[commit.at({blk.first, blk.second, f})].deps;
      EXPECT_NE(std::find(deps.begin(), deps.end(), wq), deps.end())
          << where << " factor " << f;
    }
  }
}

// --- Handover order and realized event order ------------------------------

TEST(PipelineRuntime, StageChannelHandoverOrderIsPinned) {
  const auto cfg = small_bert(4);
  PipelineRuntime* rt = nullptr;
  pipeline_run(cfg, runtime_config("1f1b", 4, 4, 4, 1, true, 2, 1), &rt);
  ASSERT_NE(rt, nullptr);
  // 1F1B hands forward activations over every boundary in ascending micro
  // order, and the normalized backward drain returns gradients ascending
  // too (the gradient-fold order).
  for (int b = 0; b < 3; ++b) {
    const std::vector<int> want{0, 1, 2, 3};
    EXPECT_EQ(rt->forward_send_order(b), want) << "fwd boundary " << b;
    EXPECT_EQ(rt->backward_send_order(b), want) << "bwd boundary " << b;
  }
}

TEST(PipelineRuntime, StaticSchedulesRealizeThePlannedEventOrder) {
  const auto cfg = small_bert(4);
  for (const char* schedule : {"gpipe", "1f1b"}) {
    PipelineRuntime* rt = nullptr;
    pipeline_run(cfg, runtime_config(schedule, 4, 4, 4, 1, true, 4, 1), &rt);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->last_realized_order(), rt->planned_order()) << schedule;
  }
}

TEST(PipelineRuntime, DynamicSchedulesExecuteEveryPlannedOpOnItsDevice) {
  const auto cfg = small_bert(4);
  PipelineRuntime* rt = nullptr;
  pipeline_run(cfg, runtime_config("chimera", 4, 4, 4, 1, true, 4, 1), &rt);
  ASSERT_NE(rt, nullptr);
  const auto planned = rt->planned_order();
  const auto realized = rt->last_realized_order();
  ASSERT_EQ(planned.size(), realized.size());
  for (std::size_t d = 0; d < planned.size(); ++d) {
    auto key = [](const PipeOp& op) { return op_key(op); };
    std::multiset<long> want, got;
    for (const auto& op : planned[d]) want.insert(key(op));
    for (const auto& op : realized[d]) got.insert(key(op));
    EXPECT_EQ(want, got) << "device " << d;
  }
}

// --- Executed timeline and bubble-dispatched K-FAC ------------------------

TEST(PipelineRuntime, ExecutedTimelineCoversAllWorkAndReportsUtilization) {
  const auto cfg = small_bert(4);
  PipelineRuntime* rt = nullptr;
  pipeline_run(cfg, runtime_config("1f1b", 4, 4, 4, 2, true, 4, 1), &rt);
  ASSERT_NE(rt, nullptr);
  const Timeline& tl = rt->last_executed_timeline();
  ASSERT_EQ(tl.n_devices(), 4u);
  // Every device executed its 4 forwards + 4 backwards plus tail work.
  std::size_t fwd = 0, bwd = 0, kfac = 0, opt = 0;
  for (std::size_t d = 0; d < tl.n_devices(); ++d) {
    for (const auto& iv : tl.device_intervals(d)) {
      EXPECT_GE(iv.end, iv.start);
      EXPECT_GE(iv.stage, 0);
      if (iv.kind == WorkKind::kForward) ++fwd;
      if (iv.kind == WorkKind::kBackward) ++bwd;
      if (iv.kind == WorkKind::kCurvatureA ||
          iv.kind == WorkKind::kCurvatureB ||
          iv.kind == WorkKind::kInversionA ||
          iv.kind == WorkKind::kInversionB)
        ++kfac;
      if (iv.kind == WorkKind::kOptimizerUpdate) ++opt;
    }
  }
  EXPECT_EQ(fwd, 16u);
  EXPECT_EQ(bwd, 16u);
  EXPECT_GT(kfac, 0u);
  EXPECT_EQ(opt, 4u);
  const double u = tl.utilization();
  EXPECT_GT(u, 0.0);
  EXPECT_LE(u, 1.0 + 1e-9);
}

TEST(PipelineRuntime, ExecutedOpOrderMatchesSimulatedOpOrder) {
  // The executed-vs-simulated cross-check: simulate the same spec under
  // unit costs and compare per-device op sequences (exact for static
  // schedules — both are the registry program). Utilizations of both
  // windows must be sane fractions; their numeric values differ (real
  // kernels vs unit costs), which is exactly what the report shows.
  const auto cfg = small_bert(4);
  PipelineRuntime* rt = nullptr;
  pipeline_run(cfg, runtime_config("1f1b", 4, 8, 4, 1, false, 4, 1), &rt);
  ASSERT_NE(rt, nullptr);
  const auto sim = simulate_step(rt->spec(), StepCosts{});
  ASSERT_EQ(sim.realized_programs.size(), rt->planned_order().size());
  EXPECT_EQ(rt->last_realized_order(), sim.realized_programs);
  const double sim_util =
      sim.timeline.utilization(0.0, sim.pipe_makespan);
  EXPECT_GT(sim_util, 0.0);
  EXPECT_LE(sim_util, 1.0);
  EXPECT_GT(rt->last_executed_timeline().utilization(), 0.0);
}

// --- Building blocks ------------------------------------------------------

TEST(TaskExecutor, RunsDagInDependencyOrderAcrossLanes) {
  ThreadPool pool(3);
  TaskExecutor ex(pool, 3);
  std::mutex mu;
  std::vector<int> order;
  auto log = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  const auto a = ex.add([&] { log(0); }, 0, 0);
  const auto b = ex.add([&] { log(1); }, 1, 0, {a});
  const auto c = ex.add([&] { log(2); }, 2, 0, {a});
  ex.add([&] { log(3); }, 0, 1, {b, c});
  ex.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
  for (const auto& rec : ex.records()) EXPECT_TRUE(rec.executed);
}

TEST(TaskExecutor, LowPriorityFillerRunsOnlyWhenLaneIsIdle) {
  // One lane: a chain of "ops" plus one ready low-priority filler. The
  // filler must not run before ready ops (bubble rule) but must run
  // eventually.
  ThreadPool pool(2);
  TaskExecutor ex(pool, 1);
  std::vector<int> order;
  std::mutex mu;
  auto log = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  const auto a = ex.add([&] { log(0); }, 0, 0);
  ex.add([&] { log(1); }, 0, 1, {a});
  ex.add([&] { log(9); }, 0, 1000);  // filler, ready from the start
  ex.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);  // highest-priority ready op first
}

TEST(TaskExecutor, ResourceTokensSerializeAcrossLanes) {
  ThreadPool pool(4);
  TaskExecutor ex(pool, 4);
  std::atomic<int> in_resource{0};
  std::atomic<bool> overlapped{false};
  for (int i = 0; i < 8; ++i) {
    ex.add(
        [&] {
          if (in_resource.fetch_add(1) > 0) overlapped = true;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          in_resource.fetch_sub(1);
        },
        static_cast<std::size_t>(i % 4), i, {}, /*resource=*/7);
  }
  ex.run();
  EXPECT_FALSE(overlapped.load());
}

TEST(TaskExecutor, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  TaskExecutor ex(pool, 2);
  const auto a = ex.add([] { throw Error("boom"); }, 0, 0);
  bool ran_dependent = false;
  ex.add([&] { ran_dependent = true; }, 1, 0, {a});
  EXPECT_THROW(ex.run(), Error);
  EXPECT_FALSE(ran_dependent);
}

TEST(TaskExecutor, ZeroWorkerPoolRunsSeriallyOnCaller) {
  ThreadPool pool(0);
  TaskExecutor ex(pool, 2);
  std::vector<int> order;
  const auto a = ex.add([&] { order.push_back(0); }, 0, 5);
  ex.add([&] { order.push_back(1); }, 1, 1, {a});
  ex.add([&] { order.push_back(2); }, 0, 0);
  ex.run();
  const std::vector<int> want{2, 0, 1};
  EXPECT_EQ(order, want);
}

TEST(TaskExecutor, OneThreadStartsAnotherLanesOpBeforeAFiller) {
  // The pick is global across idle lanes: a ready filler on lane 0 must
  // not take the only thread while lane 1 has a ready op.
  ThreadPool pool(0);
  TaskExecutor ex(pool, 2);
  std::vector<int> order;
  ex.add([&] { order.push_back(0); }, /*lane=*/0, /*priority=*/1000);
  ex.add([&] { order.push_back(1); }, /*lane=*/1, /*priority=*/0);
  ex.run();
  const std::vector<int> want{1, 0};
  EXPECT_EQ(order, want);
}

TEST(StageChannel, SendTakeRecvAndOrderLog) {
  StageChannel ch("test");
  ch.send(1, Matrix(2, 2, 1.0));
  ch.send(0, Matrix(1, 1, 2.0));
  EXPECT_TRUE(ch.has(1));
  EXPECT_EQ(ch.pending(), 2u);
  const Matrix m1 = ch.take(1);
  EXPECT_EQ(m1.rows(), 2u);
  const Matrix m0 = ch.recv(0, /*timeout_seconds=*/1.0);
  EXPECT_EQ(m0(0, 0), 2.0);
  EXPECT_EQ(ch.pending(), 0u);
  const std::vector<int> want{1, 0};
  EXPECT_EQ(ch.send_order(), want);
  EXPECT_THROW(ch.take(5), Error);
  EXPECT_THROW(ch.recv(5, 0.05), Error);
  ch.send(3, Matrix());
  EXPECT_THROW(ch.send(3, Matrix()), Error);
}

TEST(StagePartition, PartitionCoversModelParamsInOrder) {
  const auto cfg = small_bert(4);
  Rng rng(3);
  BertModel model(cfg, rng);
  for (const int stages : {1, 2, 4}) {
    BertStagePartition part(model, stages);
    EXPECT_EQ(partition_params(part), model.params()) << stages << " stages";
    std::vector<Linear*> kl;
    for (int s = 0; s < stages; ++s)
      for (Linear* l : part.stage(s).kfac_linears()) kl.push_back(l);
    EXPECT_EQ(kl, model.kfac_linears()) << stages << " stages";
  }
}

TEST(StagePartition, SingleStepMatchesMonolithicModel) {
  // One stage, one micro: forward+backward through the partition equals
  // the monolithic train_step_backward bit for bit (losses and grads).
  const auto cfg = small_bert(2);
  Rng rng1(5), rng2(5);
  BertModel mono(cfg, rng1);
  BertModel split(cfg, rng2);
  Corpus data(cfg);
  Rng drng(17);
  const auto batch = data.batcher.next_batch(6, drng);

  zero_grads(mono.params());
  const auto ref = mono.train_step_backward(batch);

  BertStagePartition part(split, 2);
  zero_grads(split.params());
  const ExecContext ctx;
  Matrix h = part.stage(0).forward(0, batch, Matrix(), ctx);
  part.stage(1).forward(0, batch, std::move(h), ctx);
  const auto losses = part.stage(1).losses(0);
  Matrix g = part.stage(1).backward(0, batch, Matrix(), ctx);
  part.stage(0).backward(0, batch, std::move(g), ctx);

  EXPECT_EQ(losses.total, ref.total);
  EXPECT_EQ(losses.mlm, ref.mlm);
  EXPECT_EQ(losses.nsp, ref.nsp);
  const auto pm = mono.params();
  const auto ps = split.params();
  ASSERT_EQ(pm.size(), ps.size());
  for (std::size_t i = 0; i < pm.size(); ++i)
    for (std::size_t e = 0; e < pm[i]->g.size(); ++e)
      EXPECT_EQ(pm[i]->g.data()[e], ps[i]->g.data()[e])
          << pm[i]->name << " elem " << e;
}

TEST(BertStage, BackwardShrinksTheStashBelowItsForward) {
  // Stashes move, never copy: backward takes the forward's whole cache set
  // back and keeps at most each tracked linear's {a_l, e_l} for the
  // curvature tasks — strictly less than the forward stashed (a
  // copy-restore stash would hold more than the forward's bytes here).
  // Without curvature readers nothing stays stashed.
  const auto cfg = small_bert(2);
  Rng rng(5);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  Rng drng(17);
  const auto batch = data.batcher.next_batch(4, drng);
  const ExecContext ctx;
  for (const bool curvature : {true, false}) {
    BertStagePartition part(model, 2);
    for (int s = 0; s < 2; ++s)
      part.stage(s).begin_step({.curvature = curvature});
    Matrix h = part.stage(0).forward(0, batch, Matrix(), ctx);
    part.stage(1).forward(0, batch, std::move(h), ctx);
    const std::size_t after_fwd0 = part.stage(0).stash_bytes();
    const std::size_t after_fwd1 = part.stage(1).stash_bytes();
    ASSERT_GT(after_fwd0, 0u);
    ASSERT_GT(after_fwd1, 0u);
    Matrix g = part.stage(1).backward(0, batch, Matrix(), ctx);
    part.stage(0).backward(0, batch, std::move(g), ctx);
    if (curvature) {
      EXPECT_GT(part.stage(0).stash_bytes(), 0u);
      EXPECT_LT(part.stage(0).stash_bytes(), after_fwd0);
      EXPECT_LT(part.stage(1).stash_bytes(), after_fwd1);
    } else {
      EXPECT_EQ(part.stage(0).stash_bytes(), 0u);
      EXPECT_EQ(part.stage(1).stash_bytes(), 0u);
    }
  }
}

// --- Release at last read: BertStage's reader rule ------------------------

// Two one-block stages driven by hand, one micro-batch per micro: no
// executor, so nothing below depends on timing.
struct StageRig {
  BertConfig cfg = small_bert(2);
  Rng rng{5};
  BertModel model{cfg, rng};
  Corpus data{cfg};
  BertStagePartition part{model, 2};
  BertBatch batch;
  ExecContext ctx;

  explicit StageRig(BertStage::StashReaders readers) {
    Rng drng(17);
    batch = data.batcher.next_batch(4, drng);
    for (int s = 0; s < 2; ++s) part.stage(s).begin_step(readers);
  }
  BertStage& first() { return part.stage(0); }
  void forward(int m) {
    part.stage(1).forward(m, batch, first().forward(m, batch, Matrix(), ctx),
                          ctx);
  }
  void backward(int m) {
    first().backward(m, batch, part.stage(1).backward(m, batch, Matrix(), ctx),
                     ctx);
  }
};

std::size_t bytes(const Matrix& m) { return m.size() * sizeof(double); }

// The message of the pf::Error `fn` throws ("" when it throws none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(BertStage, EachBufferFreesAtItsLastReader) {
  // Curvature readers only (1f1b, a refresh step): a_l of every input owner
  // and e_l of every factor are harvested, and each read frees exactly its
  // buffer. wk and wv (factors 1, 2) read wq's input and hold no a_l.
  StageRig rig({.curvature = true});
  rig.forward(0);
  rig.backward(0);
  BertStage& st = rig.first();
  const std::vector<std::size_t>& owner = st.kfac_input_owners();
  std::size_t held = 0;
  for (std::size_t f = 0; f < owner.size(); ++f) {
    if (owner[f] == f) held += bytes(st.kfac_input(0, f));
    held += bytes(st.kfac_output_grad(0, f));
  }
  ASSERT_EQ(st.stash_bytes(), held);
  for (std::size_t f = 0; f < owner.size(); ++f) {
    if (owner[f] == f) {
      const std::size_t x = bytes(st.kfac_input(0, f));
      st.kfac_input_done(0, f);
      held -= x;
      EXPECT_EQ(st.stash_bytes(), held) << "a_l of factor " << f;
      EXPECT_THROW(st.kfac_input(0, f), Error) << "factor " << f;
    } else {
      EXPECT_THROW(st.kfac_input_done(0, f), Error) << "factor " << f;
    }
    const std::size_t dy = bytes(st.kfac_output_grad(0, f));
    st.kfac_output_grad_done(0, f);
    held -= dy;
    EXPECT_EQ(st.stash_bytes(), held) << "e_l of factor " << f;
  }
  EXPECT_EQ(st.stash_bytes(), 0u);
  EXPECT_THROW(st.kfac_output_grad_done(0, 0), Error);
}

TEST(BertStage, TwoReadersFreeAtTheSecondReadInEitherOrder) {
  // zb-h1 on a refresh step: the W pass and a curvature task both read each
  // buffer. Micro 0 runs the curvature reads first, micro 1 the W pass.
  StageRig rig({.curvature = true, .weight_pass = true});
  BertStage& st = rig.first();
  const std::size_t n = st.kfac_linears().size();
  for (const int m : {0, 1}) {
    rig.forward(m);
    rig.backward(m);
  }
  const std::size_t both = st.stash_bytes();
  ASSERT_GT(both, 0u);
  const std::size_t per_micro = both / 2;

  // Curvature first: no read frees anything until the W pass.
  for (std::size_t f = 0; f < n; ++f) {
    if (st.kfac_input_owners()[f] == f) st.kfac_input_done(0, f);
    st.kfac_output_grad_done(0, f);
  }
  EXPECT_EQ(st.stash_bytes(), both);
  st.backward_dw(0, rig.ctx);
  EXPECT_EQ(st.stash_bytes(), both - per_micro);

  // W pass first: it frees nothing; each curvature read then frees its
  // buffer.
  st.backward_dw(1, rig.ctx);
  EXPECT_EQ(st.stash_bytes(), per_micro);
  const std::size_t x = bytes(st.kfac_input(1, 0));
  st.kfac_input_done(1, 0);
  EXPECT_EQ(st.stash_bytes(), per_micro - x);
  const std::size_t dy = bytes(st.kfac_output_grad(1, 3));
  st.kfac_output_grad_done(1, 3);
  EXPECT_EQ(st.stash_bytes(), per_micro - x - dy);
  EXPECT_THROW(st.backward_dw(1, rig.ctx), Error);
}

TEST(BertStage, CurvatureAReadBeforeTheBackwardLeavesTheInputUnharvested) {
  // Micro 0's wq input is read from the forward stash; micro 1's is not.
  // Each backward harvests the same pair, less that one input.
  StageRig rig({.curvature = true});
  BertStage& st = rig.first();
  rig.forward(0);
  const std::size_t x = bytes(st.kfac_input(0, 0));
  ASSERT_GT(x, 0u);
  st.kfac_input_done(0, 0);
  rig.backward(0);
  const std::size_t early = st.stash_bytes();
  EXPECT_THROW(st.kfac_input(0, 0), Error);
  rig.forward(1);
  rig.backward(1);
  EXPECT_EQ(st.stash_bytes() - early, early + x);
}

TEST(BertStage, LambHarvestsOnlyWhatTheWPassReads) {
  // No reader (1f1b under LAMB): the backward harvests nothing. The W pass
  // alone (zb-h1 under LAMB): the backward harvests every linear's pair —
  // the heads' too — and the W pass frees all of it.
  {
    StageRig rig({});
    rig.forward(0);
    rig.backward(0);
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(rig.part.stage(s).stash_bytes(), 0u) << "stage " << s;
      rig.part.stage(s).end_step();
    }
  }
  StageRig curv({.curvature = true});
  StageRig w({.weight_pass = true});
  for (StageRig* rig : {&curv, &w}) {
    rig->forward(0);
    rig->backward(0);
  }
  // Stage 0: the pairs curvature reads. Last stage: those plus the heads'.
  EXPECT_EQ(w.part.stage(0).stash_bytes(), curv.part.stage(0).stash_bytes());
  EXPECT_GT(w.part.stage(1).stash_bytes(), curv.part.stage(1).stash_bytes());
  for (int s = 0; s < 2; ++s) {
    w.part.stage(s).backward_dw(0, w.ctx);
    EXPECT_EQ(w.part.stage(s).stash_bytes(), 0u) << "stage " << s;
    w.part.stage(s).end_step();
  }
}

TEST(BertStage, EndStepNamesAReaderThatNeverRan) {
  StageRig rig({.curvature = true});
  BertStage& st = rig.first();
  rig.forward(0);
  rig.backward(0);
  for (std::size_t f = 0; f < st.kfac_linears().size(); ++f) {
    if (st.kfac_input_owners()[f] == f) st.kfac_input_done(0, f);
    if (f != 3) st.kfac_output_grad_done(0, f);
  }
  std::string what = error_of([&] { st.end_step(); });
  EXPECT_NE(what.find("stage 0 micro 0: factor 3"), std::string::npos)
      << what;
  EXPECT_NE(what.find("e_l"), std::string::npos) << what;

  // A forward whose backward never ran.
  st.begin_step({.curvature = true});
  rig.forward(2);
  what = error_of([&] { st.end_step(); });
  EXPECT_NE(what.find("stage 0 micro 2: the forward stash"),
            std::string::npos)
      << what;

  // A W pass that never ran.
  StageRig zb({.weight_pass = true});
  zb.forward(1);
  zb.backward(1);
  what = error_of([&] { zb.part.stage(1).end_step(); });
  EXPECT_NE(what.find("stage 1 micro 1: factor 0"), std::string::npos)
      << what;
  EXPECT_NE(what.find("the W pass among them"), std::string::npos) << what;
}

TEST(PipelineRuntime, FlushlessSchedulesStreamOnlyThroughRunFlushless) {
  const auto cfg = small_bert(2);
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  // LAMB-only flushless constructs fine (run_flushless is its entry), but
  // the synchronous step()/run() path must reject it...
  auto pc = runtime_config("1f1b-flushless", 2, 4, 4, 1, false, 1, 1);
  PipelineRuntime rt(model, data.batcher, pc);
  EXPECT_THROW(rt.step(), Error);
  // ...and K-FAC has no step boundary to anchor curvature refreshes, so a
  // flushless + use_kfac config is rejected at construction.
  auto kfac_pc = runtime_config("1f1b-flushless", 2, 4, 4, 1, true, 1, 1);
  EXPECT_THROW(PipelineRuntime(model, data.batcher, kfac_pc), Error);
}

TEST(PipelineRuntime, RejectsMoreThanTwoPipelines) {
  // chimera-4 is registry- and simulator-complete, but the executable
  // runtime maps at most two pipelines onto its devices — the constructor
  // must say so rather than mis-execute.
  const auto cfg = small_bert(2);
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  auto pc = runtime_config("chimera-4", 2, 4, 4, 1, false, 1, 1);
  try {
    PipelineRuntime rt(model, data.batcher, pc);
    FAIL() << "expected pf::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at most 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace pf
