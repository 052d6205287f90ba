// Multi-process training launcher + bitwise cross-check.
//
// Forks one process per pipeline device (train/multiproc.h), trains a
// small BERT over the shm-ring transport, then re-runs the SAME workload
// through the in-process PipelineRuntime and the serial Trainer and
// demands bitwise-identical losses and final parameters. Exit 0 = all
// three agree; nonzero = mismatch or a child failed. CI runs this as the
// 2-process 2-stage smoke.
//
// Usage:
//   multiproc_train [schedule] [n_stages] [n_micro] [steps] [lamb|kfac]
// Defaults: 1f1b 2 4 3 lamb. A count that is not a positive whole number
// or an optimizer other than lamb/kfac exits 2 naming the argument.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/optim/lamb.h"
#include "src/train/multiproc.h"
#include "src/train/trainer.h"

namespace {

pf::BertConfig small_bert() {
  pf::BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 4;
  cfg.seq_len = 12;
  return cfg;
}

struct Corpus {
  pf::SyntheticCorpus corpus;
  pf::MlmBatcher batcher;
  explicit Corpus(const pf::BertConfig& cfg)
      : corpus([&] {
          pf::CorpusConfig cc;
          cc.vocab = cfg.vocab;
          return cc;
        }()),
        batcher(corpus, [&] {
          pf::MlmBatcherConfig bc;
          bc.seq_len = cfg.seq_len;
          return bc;
        }()) {}
};

struct RunResult {
  std::vector<double> losses;
  std::vector<std::vector<double>> params;
};

RunResult serial_reference(const pf::BertConfig& cfg, int n_micro,
                           std::size_t micro_batch, std::size_t steps,
                           bool use_kfac) {
  pf::Rng rng(7);
  pf::BertModel model(cfg, rng);
  Corpus data(cfg);
  pf::TrainerConfig tc;
  tc.batch_size = micro_batch;
  tc.accumulation_steps = static_cast<std::size_t>(n_micro);
  tc.total_steps = steps;
  tc.schedule = pf::PolyWarmupSchedule(1e-2, 0, steps);
  std::unique_ptr<pf::Optimizer> opt;
  if (use_kfac) {
    pf::KfacOptimizerOptions o;
    o.inverse_interval = 3;
    o.per_micro_curvature = true;
    opt = std::make_unique<pf::KfacOptimizer>(model.kfac_linears(),
                                              std::make_unique<pf::Lamb>(), o);
  } else {
    opt = std::make_unique<pf::Lamb>();
  }
  pf::Trainer trainer(model, data.batcher, std::move(opt), tc);
  const auto trace = trainer.run();
  RunResult r;
  r.losses = trace.loss;
  for (pf::Param* p : model.params())
    r.params.emplace_back(p->w.data(), p->w.data() + p->w.size());
  return r;
}

pf::PipelineRuntimeConfig runtime_config(const std::string& schedule,
                                         int stages, int n_micro,
                                         std::size_t micro_batch,
                                         std::size_t steps, bool use_kfac) {
  pf::PipelineRuntimeConfig pc;
  pc.schedule = schedule;
  pc.n_stages = stages;
  pc.n_micro = n_micro;
  pc.micro_batch_size = micro_batch;
  pc.total_steps = steps;
  pc.lr = pf::PolyWarmupSchedule(1e-2, 0, steps);
  pc.use_kfac = use_kfac;
  pc.kfac.inverse_interval = 3;
  return pc;
}

int compare(const RunResult& a, const RunResult& b, const char* label) {
  int bad = 0;
  if (a.losses.size() != b.losses.size()) {
    std::fprintf(stderr, "FAIL %s: %zu vs %zu loss steps\n", label,
                 a.losses.size(), b.losses.size());
    return 1;
  }
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    if (a.losses[i] != b.losses[i]) {
      std::fprintf(stderr, "FAIL %s: loss[%zu] %.17g vs %.17g\n", label, i,
                   a.losses[i], b.losses[i]);
      ++bad;
    }
  if (a.params.size() != b.params.size()) {
    std::fprintf(stderr, "FAIL %s: %zu vs %zu param tensors\n", label,
                 a.params.size(), b.params.size());
    return bad + 1;
  }
  for (std::size_t p = 0; p < a.params.size() && bad < 8; ++p) {
    if (a.params[p].size() != b.params[p].size()) {
      std::fprintf(stderr, "FAIL %s: tensor %zu size mismatch\n", label, p);
      ++bad;
      continue;
    }
    for (std::size_t i = 0; i < a.params[p].size(); ++i)
      if (a.params[p][i] != b.params[p][i]) {
        std::fprintf(stderr, "FAIL %s: param[%zu][%zu] %.17g vs %.17g\n",
                     label, p, i, a.params[p][i], b.params[p][i]);
        ++bad;
        break;
      }
  }
  return bad;
}

// A positive whole number, or false for anything else ("two", "2x", "-1",
// "0", overflow).
bool parse_count(const char* s, int& out) {
  const char* end = s + std::strlen(s);
  int v = 0;
  const auto [stop, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || stop != end || v < 1) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string schedule = argc > 1 ? argv[1] : "1f1b";
  int n_stages = 2, n_micro = 4, steps = 3;
  const struct {
    int* value;
    const char* name;
  } counts[] = {{&n_stages, "n_stages"}, {&n_micro, "n_micro"},
                {&steps, "steps"}};
  for (int i = 0; i < 3 && i + 2 < argc; ++i)
    if (!parse_count(argv[i + 2], *counts[i].value)) {
      std::fprintf(stderr,
                   "multiproc_train: %s must be a positive whole number, "
                   "got '%s'\n",
                   counts[i].name, argv[i + 2]);
      return 2;
    }
  const std::string optim = argc > 5 ? argv[5] : "lamb";
  if (optim != "lamb" && optim != "kfac") {
    std::fprintf(stderr,
                 "multiproc_train: unknown optimizer '%s' (want lamb or "
                 "kfac)\n",
                 optim.c_str());
    return 2;
  }
  const bool use_kfac = optim == "kfac";
  const std::size_t micro_batch = 2;

  try {

    const pf::BertConfig bcfg = small_bert();

    // Multi-process run FIRST: fork() wants a quiescent, thread-free
    // parent, which this process is before any runtime spins up pools.
    pf::MultiprocConfig mcfg;
    mcfg.runtime = runtime_config(schedule, n_stages, n_micro, micro_batch,
                                  static_cast<std::size_t>(steps), use_kfac);
    pf::Rng rng(7);
    pf::BertModel model(bcfg, rng);
    Corpus data(bcfg);
    const pf::MultiprocResult mp =
        pf::run_multiproc(model, data.batcher, mcfg);
    RunResult mp_r;
    mp_r.losses = mp.trace.loss;
    mp_r.params = mp.params;

    // In-process runtime over the same shm transport, then the serial
    // Trainer — the two references the bitwise contract names.
    pf::Rng rng2(7);
    pf::BertModel model2(bcfg, rng2);
    Corpus data2(bcfg);
    pf::PipelineRuntimeConfig pc = mcfg.runtime;
    pc.transport = "shm";
    pf::PipelineRuntime rt(model2, data2.batcher, pc);
    const auto trace2 = rt.run();
    RunResult ip_r;
    ip_r.losses = trace2.loss;
    for (pf::Param* p : model2.params())
      ip_r.params.emplace_back(p->w.data(), p->w.data() + p->w.size());

    const RunResult serial = serial_reference(
        bcfg, n_micro, micro_batch, static_cast<std::size_t>(steps), use_kfac);

    int bad = 0;
    bad += compare(mp_r, ip_r, "multiproc vs in-process");
    bad += compare(mp_r, serial, "multiproc vs serial");
    if (bad != 0) return 1;

    std::printf("multiproc_train OK: %s stages=%d micros=%d steps=%d %s\n",
                schedule.c_str(), n_stages, n_micro, steps, optim.c_str());
    std::printf("  processes=%d wall=%.3fs (slowest child step loop)\n",
                mp.n_processes, mp.wall_seconds);
    for (std::size_t d = 0; d < mp.peak_live_bytes.size(); ++d)
      std::printf("  child %zu peak live pool bytes=%zu\n", d,
                  mp.peak_live_bytes[d]);
    for (const auto& h : mp.handoff)
      std::printf("  %-12s waits=%zu p50=%.1fus p95=%.1fus mean=%.1fus\n",
                  h.channel.c_str(), h.waits, h.wait_p50 * 1e6,
                  h.wait_p95 * 1e6, h.wait_mean * 1e6);
    std::printf("  bitwise: losses+params == in-process runtime == serial "
                "Trainer\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "multiproc_train failed: %s\n", e.what());
    return 2;
  }
}
