// Multi-process stage placement (src/train/multiproc.h): forked
// one-process-per-device training over the shm-ring transport must be
// bitwise-identical — losses AND final parameters — to both the
// in-process runtime (shm transport) and the serial Trainer, across
// schedules, stage counts, and optimizers.
//
// These tests fork(). They are deliberately NOT in test_transport.cpp:
// the TSan CI job runs that binary, and forking a TSan'd multi-threaded
// parent is undefined-behavior territory. CI runs this file in the
// regular and multi-process job legs only.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "src/optim/lamb.h"
#include "src/train/multiproc.h"
#include "src/train/trainer.h"

namespace pf {
namespace {

BertConfig small_bert() {
  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 4;
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
  std::vector<std::vector<double>> params;
};

constexpr int kMicros = 4;
constexpr std::size_t kMicroBatch = 2;
constexpr std::size_t kSteps = 2;

RunResult serial_reference(const BertConfig& cfg, bool use_kfac) {
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  TrainerConfig tc;
  tc.batch_size = kMicroBatch;
  tc.accumulation_steps = kMicros;
  tc.total_steps = kSteps;
  tc.schedule = PolyWarmupSchedule(1e-2, 0, kSteps);
  std::unique_ptr<Optimizer> opt;
  if (use_kfac) {
    KfacOptimizerOptions o;
    o.inverse_interval = 3;
    o.per_micro_curvature = true;
    opt = std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                          std::make_unique<Lamb>(), o);
  } else {
    opt = std::make_unique<Lamb>();
  }
  Trainer trainer(model, data.batcher, std::move(opt), tc);
  RunResult r;
  r.losses = trainer.run().loss;
  for (Param* p : model.params())
    r.params.emplace_back(p->w.data(), p->w.data() + p->w.size());
  return r;
}

PipelineRuntimeConfig runtime_config(const std::string& schedule, int stages,
                                     bool use_kfac) {
  PipelineRuntimeConfig pc;
  pc.schedule = schedule;
  pc.n_stages = stages;
  pc.n_micro = kMicros;
  pc.micro_batch_size = kMicroBatch;
  pc.total_steps = kSteps;
  pc.lr = PolyWarmupSchedule(1e-2, 0, kSteps);
  pc.use_kfac = use_kfac;
  pc.kfac.inverse_interval = 3;
  return pc;
}

void expect_bitwise(const RunResult& a, const RunResult& b,
                    const std::string& label) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    EXPECT_EQ(a.losses[i], b.losses[i]) << label << " loss step " << i;
  ASSERT_EQ(a.params.size(), b.params.size()) << label;
  for (std::size_t p = 0; p < a.params.size(); ++p)
    EXPECT_EQ(a.params[p], b.params[p]) << label << " tensor " << p;
}

// Runs the forked launcher, the in-process runtime over the shm transport,
// and the serial Trainer; demands all three agree bitwise.
void check_grid_point(const std::string& schedule, int stages, bool use_kfac) {
  SCOPED_TRACE(schedule + " stages=" + std::to_string(stages) +
               (use_kfac ? " kfac" : " lamb"));
  const BertConfig cfg = small_bert();

  // Forked run first: fork() from a parent that has not spun up pools yet.
  MultiprocConfig mcfg;
  mcfg.runtime = runtime_config(schedule, stages, use_kfac);
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  const MultiprocResult mp = run_multiproc(model, data.batcher, mcfg);
  RunResult mp_r;
  mp_r.losses = mp.trace.loss;
  mp_r.params = mp.params;

  // Launcher bookkeeping sanity.
  EXPECT_GT(mp.n_processes, 0);
  EXPECT_LE(mp.n_processes, stages);
  EXPECT_GT(mp.wall_seconds, 0.0);
  ASSERT_EQ(mp_r.losses.size(), kSteps);

  Rng rng2(7);
  BertModel model2(cfg, rng2);
  Corpus data2(cfg);
  PipelineRuntimeConfig pc = mcfg.runtime;
  pc.transport = "shm";
  PipelineRuntime rt(model2, data2.batcher, pc);
  RunResult ip_r;
  ip_r.losses = rt.run().loss;
  for (Param* p : model2.params())
    ip_r.params.emplace_back(p->w.data(), p->w.data() + p->w.size());

  expect_bitwise(mp_r, ip_r, "multiproc vs in-process");
  expect_bitwise(mp_r, serial_reference(cfg, use_kfac), "multiproc vs serial");
}

TEST(Multiproc, GpipeTwoStagesLamb) { check_grid_point("gpipe", 2, false); }
TEST(Multiproc, GpipeTwoStagesKfac) { check_grid_point("gpipe", 2, true); }
TEST(Multiproc, GpipeFourStagesLamb) { check_grid_point("gpipe", 4, false); }
TEST(Multiproc, OneFOneBTwoStagesLamb) { check_grid_point("1f1b", 2, false); }
TEST(Multiproc, OneFOneBTwoStagesKfac) { check_grid_point("1f1b", 2, true); }
TEST(Multiproc, OneFOneBFourStagesKfac) { check_grid_point("1f1b", 4, true); }
TEST(Multiproc, InterleavedTwoStagesKfac) {
  check_grid_point("interleaved-1f1b", 2, true);
}
TEST(Multiproc, ZeroBubbleTwoStagesLamb) { check_grid_point("zb-h1", 2, false); }
TEST(Multiproc, ZeroBubbleTwoStagesKfac) { check_grid_point("zb-h1", 2, true); }
// Middle stages' deferred W passes with curvature stashes kept across
// processes: only D > 2 has a stage that both receives and sends.
TEST(Multiproc, ZeroBubbleFourStagesKfac) { check_grid_point("zb-h1", 4, true); }

TEST(Multiproc, BaseOptimizerBuiltOncePerStageInChildrenOnly) {
  // Children build per-stage state after the fork, for the stages they
  // own only: the factory runs exactly once per stage, never in the
  // parent. interleaved-1f1b puts two model stages on each of 2 children.
  struct Calls {
    std::atomic<int> total{0};
    std::atomic<int> in_parent{0};
  };
  static_assert(std::atomic<int>::is_always_lock_free);
  SharedRegion region(sizeof(Calls));
  Calls* calls = new (region.data()) Calls();
  const pid_t parent = getpid();
  const BertConfig cfg = small_bert();
  MultiprocConfig mcfg;
  mcfg.runtime = runtime_config("interleaved-1f1b", 2, true);
  mcfg.runtime.base_optimizer = [calls, parent] {
    ++calls->total;
    if (getpid() == parent) ++calls->in_parent;
    return std::make_unique<Lamb>();
  };
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  const MultiprocResult mp = run_multiproc(model, data.batcher, mcfg);
  EXPECT_EQ(mp.n_processes, 2);
  EXPECT_EQ(calls->total.load(), 4);  // D · virtual_chunks model stages
  EXPECT_EQ(calls->in_parent.load(), 0);
  calls->~Calls();
}

TEST(Multiproc, ForkedChildAllocatesWhileAnotherThreadChurnsThePool) {
  // Matrix storage comes from a pool with one lock (linalg/matrix.h), which
  // a pthread_atfork handler holds across fork(), as glibc does for malloc,
  // so no child inherits it locked. Children forked while another thread
  // allocates and frees in a loop must each allocate a Matrix and exit.
  // The fork window is a race, so this guards against a hang; it cannot
  // prove that the handler is there.
  std::atomic<bool> stop{false};
  std::thread churn([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      Matrix m = Matrix::uninitialized(16, 16);
      m.fill(1.0);
    }
  });
  for (int i = 0; i < 20; ++i) {
    const pid_t pid = fork();
    if (pid == 0) {
      const Matrix m(16, 16, 2.0);
      _exit(m(15, 15) == 2.0 ? 0 : 1);
    }
    if (pid < 0) {
      ADD_FAILURE() << "fork failed";
      break;
    }
    int status = 0;
    pid_t done = 0;
    for (int waited_ms = 0; done == 0 && waited_ms < 10000; ++waited_ms) {
      done = waitpid(pid, &status, WNOHANG);
      if (done == 0) usleep(1000);
    }
    if (done == 0) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
    }
    EXPECT_EQ(done, pid) << "child " << i << " still running after 10 s";
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child " << i;
  }
  stop = true;
  churn.join();
}

TEST(Multiproc, HandoffStatsCoverEveryBoundaryDirection) {
  const BertConfig cfg = small_bert();
  MultiprocConfig mcfg;
  mcfg.runtime = runtime_config("1f1b", 2, false);
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  const MultiprocResult mp = run_multiproc(model, data.batcher, mcfg);
  // One forward and one backward ring per interior boundary.
  ASSERT_EQ(mp.handoff.size(), 2u * (2 - 1));
  for (const auto& h : mp.handoff) {
    EXPECT_FALSE(h.channel.empty());
    EXPECT_GE(h.wait_p95, h.wait_p50);
    EXPECT_GE(h.wait_p50, 0.0);
  }
}

}  // namespace
}  // namespace pf
