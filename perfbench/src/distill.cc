// Workload `distill`: the paper's Algorithm 1 end to end. Per round, one
// MDFEND clean teacher, then for each student architecture (TextCNN-S,
// BiGRU-S) a DAT-IE unbiased teacher and TrainDtdbd into a fresh student,
// and a test-split evaluation. Rounds repeat until the run's time is
// spent, each on its own corpus and model seeds derived from the run's
// seed; set-up and the latest students' batch-of-one inference latency are
// timed between the training stages (RunClock). Student
// quality is the median over the students of the first kMinRounds rounds,
// so it depends on the seed alone.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "dtdbd/dat.h"
#include "dtdbd/dtdbd.h"
#include "dtdbd/trainer.h"
#include "metrics/metrics.h"
#include "models/model.h"
#include "serve/session.h"
#include "tensor/registry.h"
#include "text/frozen_encoder.h"

namespace perfbench {
namespace {

using namespace dtdbd;

// Corpus: the Weibo21-like generator (9 domains, paper Table IV marginals)
// at 25% of the paper's size, split 30/5/65 stratified by (domain, label):
// a large test split keeps the per-domain error rates behind FNED/FPED
// from swinging on a handful of samples.
constexpr double kCorpusScale = 0.25;
constexpr int kKernelThreads = 2;
constexpr int kSetupRepeats = 3;
constexpr int kTeacherEpochs = 3;
constexpr int kDistillEpochs = 5;
constexpr int kMinRounds = 2;
// Batch-of-one predictions timed per student at each point of a RunClock;
// two rounds give at least 1000 latency samples.
constexpr int kLatencyChunk = 150;
const char* const kStudents[] = {"TextCNN-S", "BiGRU-S"};
// Ops whose forward+backward time is reported per training step. These
// dominate the self time of the pipeline's ops (see README).
const char* const kReportedOps[] = {"Conv1dSeqRelu", "MatMul", "Tanh", "Add",
                                    "Sigmoid"};

// Round r of a run draws its corpus and model seeds from this.
uint64_t RoundSeed(uint64_t seed, int round) {
  return seed * 1000 + static_cast<uint64_t>(round);
}

struct Setup {
  data::NewsDataset dataset;
  data::DatasetSplits splits;
  std::unique_ptr<text::FrozenEncoder> encoder;
  models::ModelConfig config;
  double corpus_s = 0.0;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  const int64_t start = NowNs();
  setup->dataset = data::GenerateCorpus(data::Weibo21Config(kCorpusScale, seed));
  setup->corpus_s = SecondsSince(start);
  Rng split_rng(seed * 7919 + 11);
  setup->splits = data::StratifiedSplit(setup->dataset, 0.3, 0.05, &split_rng);
  setup->encoder = std::make_unique<text::FrozenEncoder>(
      setup->dataset.vocab->size(), 32, seed + 21);
  setup->config.vocab_size = setup->dataset.vocab->size();
  setup->config.num_domains = setup->dataset.num_domains();
  setup->config.encoder = setup->encoder.get();
  setup->config.seed = seed + 5;
  return setup;
}

// Points spread over a run, after every training stage and every student,
// at which set-up and the students' predictions are timed. One set-up takes
// about 10 ms and a batch-of-one prediction a few hundred µs, while the
// speed of the shared host the figures come from wanders by 20-30% over
// seconds: repetitions back to back measure one moment of it.
class RunClock {
 public:
  explicit RunClock(uint64_t seed) : seed_(seed) {}

  // Makes `student`, trained on `setup`, the one timed for architecture
  // `arch`; `p_fake` holds its batched predictions on the test split, which
  // every timed answer must equal bit for bit.
  void SetStudent(size_t arch, std::shared_ptr<const Setup> setup,
                  std::unique_ptr<models::FakeNewsModel> student,
                  std::vector<float> p_fake) {
    serve::RequestLimits limits;
    limits.vocab_size = setup->config.vocab_size;
    limits.num_domains = setup->config.num_domains;
    limits.seq_len = setup->splits.test.seq_len;
    Student& s = students_[arch];
    s.session = std::make_unique<serve::InferenceSession>(std::move(student),
                                                          limits, 1);
    s.setup = std::move(setup);
    s.p_fake = std::move(p_fake);
    s.next = 0;
  }

  // Times kSetupRepeats round-0 set-ups, then kLatencyChunk batch-of-one
  // predictions of each architecture's latest student at 1 kernel thread,
  // the way the serve workloads deploy a model (at batch 1 the pool's
  // wake-ups cost more than they save and made the figure swing).
  void Sample(RunResult* result) {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const int64_t start = NowNs();
      const std::unique_ptr<Setup> setup = BuildSetup(seed_);
      setup_times_.push_back(SecondsSince(start));
    }
    const int threads = GetNumThreads();
    SetNumThreads(1);
    for (size_t a = 0; a < std::size(kStudents); ++a) {
      Student& s = students_[a];
      if (s.session == nullptr) continue;
      const auto& test = s.setup->splits.test.samples;
      std::vector<double>& chunk = s.chunks_ms.emplace_back();
      for (int i = 0; i < kLatencyChunk; ++i, ++s.next) {
        const size_t k = s.next % test.size();
        serve::InferenceRequest request;
        request.tokens = test[k].tokens;
        request.domain = test[k].domain;
        request.style = test[k].style;
        request.emotion = test[k].emotion;
        const int64_t start = NowNs();
        const StatusOr<serve::Prediction> got = s.session->Predict(request);
        chunk.push_back(static_cast<double>(NowNs() - start) / 1e6);
        ++result->attempted;
        if (!got.ok()) {
          ++result->failed;
          result->op_errors.push_back(std::string("student predict ") +
                                      kStudents[a] + ": " +
                                      got.status().ToString());
          continue;
        }
        result->Check(
            std::memcmp(&got.value().p_fake, &s.p_fake[k], sizeof(float)) == 0,
            std::string(kStudents[a]) +
                ": session p_fake differs from the batched one");
      }
    }
    SetNumThreads(threads);
  }

  double setup_s() const { return Median(setup_times_); }
  int64_t setup_samples() const {
    return static_cast<int64_t>(setup_times_.size());
  }
  // Latency quantile q of the students: per architecture, the median over
  // points of each point's quantile, averaged over the architectures.
  double StudentLatency(double q) const {
    double sum = 0.0;
    for (const Student& s : students_) {
      std::vector<double> per_point;
      for (const auto& chunk : s.chunks_ms) per_point.push_back(Quantile(chunk, q));
      sum += Median(per_point);
    }
    return sum / std::size(kStudents);
  }
  // Quantile q over every timed prediction of every student.
  double PooledLatency(double q) const {
    std::vector<double> all;
    for (const Student& s : students_) {
      for (const auto& chunk : s.chunks_ms) all.insert(all.end(), chunk.begin(), chunk.end());
    }
    return Quantile(std::move(all), q);
  }
  int64_t latency_samples() const {
    int64_t n = 0;
    for (const Student& s : students_) {
      for (const auto& chunk : s.chunks_ms) n += static_cast<int64_t>(chunk.size());
    }
    return n;
  }

 private:
  struct Student {
    std::shared_ptr<const Setup> setup;  // owns the encoder the model uses
    std::unique_ptr<serve::InferenceSession> session;
    std::vector<float> p_fake;
    size_t next = 0;  // next test sample to request
    std::vector<std::vector<double>> chunks_ms;
  };

  const uint64_t seed_;
  std::vector<double> setup_times_;
  Student students_[std::size(kStudents)];
};

int64_t Batches(const data::NewsDataset& dataset, int64_t batch_size) {
  return (dataset.size() + batch_size - 1) / batch_size;
}

std::vector<std::vector<float>> Snapshot(const models::FakeNewsModel& model) {
  std::vector<std::vector<float>> out;
  for (const tensor::Tensor& p : model.Parameters()) out.push_back(p.ToVector());
  return out;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool AllFinite(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return !values.empty();
}

void AddOps(const std::map<std::string, tensor::OpStats>& before,
            std::map<std::string, tensor::OpStats>* into) {
  for (const auto& [name, after] : tensor::GetOpStats()) {
    tensor::OpStats base;
    if (const auto it = before.find(name); it != before.end()) base = it->second;
    tensor::OpStats& acc = (*into)[name];
    acc.forward_ns += after.forward_ns - base.forward_ns;
    acc.backward_ns += after.backward_ns - base.backward_ns;
    acc.nodes += after.nodes - base.nodes;
    acc.allocs += after.allocs - base.allocs;
    acc.bytes += after.bytes - base.bytes;
  }
}

struct RoundStats {
  double dat_s = 0.0, clean_s = 0.0, distill_s = 0.0;
  int64_t dat_samples = 0, clean_samples = 0, distill_samples = 0;
  int64_t steps = 0;
  int64_t operations = 0;
  int64_t failed = 0;
  std::vector<double> f1;    // per student
  std::vector<double> bias;  // FNED+FPED per student
  // Op counters accumulated over the training calls only (zero unless op
  // profiling is on).
  std::map<std::string, tensor::OpStats> train_ops;
  std::vector<std::vector<float>> student_p_fake;

  double train_s() const { return dat_s + clean_s + distill_s; }
  int64_t train_samples() const {
    return dat_samples + clean_samples + distill_samples;
  }
};

// Counts a stage as one operation; a non-ok status fails it.
bool Stage(const Status& status, const std::string& what, RoundStats* stats,
           RunResult* result) {
  ++stats->operations;
  if (status.ok()) return true;
  ++stats->failed;
  result->op_errors.push_back(what + ": " + status.ToString());
  return false;
}

RoundStats RunRound(const std::shared_ptr<const Setup>& setup_ptr,
                    uint64_t seed, RunClock* clock, RunResult* result) {
  const Setup& setup = *setup_ptr;
  RoundStats stats;
  const data::NewsDataset& train = setup.splits.train;
  const data::NewsDataset& val = setup.splits.val;
  const data::NewsDataset& test = setup.splits.test;

  TrainOptions topts;
  topts.epochs = kTeacherEpochs;
  topts.seed = seed + 1234;

  // Clean teacher: fine-tuned MDFEND, shared by both students.
  auto clean = models::CreateModel("MDFEND", setup.config);
  {
    const auto ops = tensor::GetOpStats();
    const int64_t start = NowNs();
    const TrainResult r = TrainSupervised(clean.get(), train, &val, topts);
    stats.clean_s += SecondsSince(start);
    AddOps(ops, &stats.train_ops);
    Stage(r.status, "clean teacher", &stats, result);
    result->Check(AllFinite(r.train_loss_per_epoch),
                  "clean teacher loss not finite");
  }
  clock->Sample(result);
  stats.clean_samples += topts.epochs * train.size();
  stats.steps += topts.epochs * Batches(train, topts.batch_size);

  std::vector<int> labels, domains;
  for (const data::NewsSample& s : test.samples) {
    labels.push_back(s.label);
    domains.push_back(s.domain);
  }
  const double majority_f1 = MajorityMacroF1(labels);

  for (size_t a = 0; a < std::size(kStudents); ++a) {
    const std::string name = kStudents[a];
    DatIeOptions dat;
    dat.train = topts;
    dat.alpha = 2.5f;
    models::ModelConfig teacher_config = setup.config;
    teacher_config.adversarial_lambda = 1.5f;
    std::unique_ptr<DatWrapper> teacher;
    {
      const auto ops = tensor::GetOpStats();
      const int64_t start = NowNs();
      teacher = TrainUnbiasedTeacher(name, teacher_config, train, nullptr, dat);
      stats.dat_s += SecondsSince(start);
      AddOps(ops, &stats.train_ops);
      Stage(Status::Ok(), "DAT-IE teacher", &stats, result);
    }
    clock->Sample(result);
    stats.dat_samples += dat.train.epochs * train.size();
    stats.steps += dat.train.epochs * Batches(train, dat.train.batch_size);

    const auto teacher_before = Snapshot(*teacher);
    const auto clean_before = Snapshot(*clean);
    models::ModelConfig student_config = setup.config;
    student_config.seed = seed + 31;
    auto student = models::CreateModel(name, student_config);
    DtdbdOptions dopts;
    dopts.epochs = kDistillEpochs;
    dopts.seed = seed + 99;
    DtdbdResult dr;
    {
      const auto ops = tensor::GetOpStats();
      const int64_t start = NowNs();
      dr = TrainDtdbd(student.get(), teacher.get(), clean.get(), train, val,
                      dopts);
      stats.distill_s += SecondsSince(start);
      AddOps(ops, &stats.train_ops);
      Stage(dr.status, "TrainDtdbd " + name, &stats, result);
    }
    stats.distill_samples += dopts.epochs * train.size();
    stats.steps += dopts.epochs * Batches(train, dopts.batch_size);

    // Oracles on the distillation itself.
    result->Check(AllFinite(dr.train_loss_per_epoch),
                  name + ": distillation loss not finite");
    result->Check(dr.train_loss_per_epoch.size() >= 2 &&
                      dr.train_loss_per_epoch.back() <
                          dr.train_loss_per_epoch.front(),
                  name + ": last distillation epoch loss not below the first");
    for (const double w : dr.w_add_per_epoch) {
      result->Check(w >= dopts.min_teacher_weight - 1e-12 &&
                        w <= 1.0 - dopts.min_teacher_weight + 1e-12,
                    name + ": w_ADD " + std::to_string(w) + " out of range");
    }
    const auto teacher_after = Snapshot(*teacher);
    const auto clean_after = Snapshot(*clean);
    bool unchanged = teacher_after.size() == teacher_before.size() &&
                     clean_after.size() == clean_before.size();
    for (size_t i = 0; unchanged && i < teacher_before.size(); ++i) {
      unchanged = SameBits(teacher_before[i], teacher_after[i]);
    }
    for (size_t i = 0; unchanged && i < clean_before.size(); ++i) {
      unchanged = SameBits(clean_before[i], clean_after[i]);
    }
    result->Check(unchanged, name + ": TrainDtdbd changed a teacher parameter");

    // Test-split evaluation, recomputed here from the raw predictions.
    const std::vector<int> preds = Predict(student.get(), test);
    std::vector<float> p_fake = PredictFakeProbability(student.get(), test);
    Stage(Status::Ok(), "evaluate " + name, &stats, result);
    const metrics::EvalReport report =
        metrics::Evaluate(preds, labels, domains, test.num_domains());
    const Quality quality =
        EvaluateQuality(preds, labels, domains, test.num_domains());
    result->Check(std::abs(report.f1 - quality.macro_f1) <= 1e-12 &&
                      std::abs(report.fned - quality.fned) <= 1e-12 &&
                      std::abs(report.fped - quality.fped) <= 1e-12,
                  name + ": metrics::Evaluate disagrees with the benchmark's "
                         "own macro-F1/FNED/FPED");
    result->Check(quality.macro_f1 > majority_f1,
                  name + ": student F1 " + std::to_string(quality.macro_f1) +
                      " not above majority-class F1 " +
                      std::to_string(majority_f1));
    stats.f1.push_back(quality.macro_f1);
    stats.bias.push_back(quality.bias());

    stats.student_p_fake.push_back(p_fake);
    clock->SetStudent(a, setup_ptr, std::move(student), std::move(p_fake));
    clock->Sample(result);
  }
  return stats;
}

struct PassStats {
  double setup_s = 0.0;
  int64_t setup_samples = 0;
  double latency_p50_ms = 0.0, latency_p90_ms = 0.0, latency_p99_ms = 0.0;
  int64_t latency_samples = 0;
  std::vector<RoundStats> rounds;
  double train_samples_per_s() const {
    double s = 0.0;
    int64_t n = 0;
    for (const RoundStats& r : rounds) {
      s += r.train_s();
      n += r.train_samples();
    }
    return static_cast<double>(n) / s;
  }
};

// Runs rounds until `seconds` have elapsed and at least `min_rounds` ran,
// timing set-up and the students' predictions at the start and between the
// rounds' stages (RunClock). Later rounds build their own corpus outside
// the timed training calls. `setup_out` receives round 0's set-up.
PassStats RunPass(uint64_t seed, double seconds, int min_rounds,
                  RunResult* result,
                  std::shared_ptr<const Setup>* setup_out) {
  PassStats pass;
  RunClock clock(RoundSeed(seed, 0));
  clock.Sample(result);
  const int64_t start = NowNs();
  for (int round = 0; round < min_rounds || SecondsSince(start) < seconds;
       ++round) {
    const uint64_t round_seed = RoundSeed(seed, round);
    const std::shared_ptr<const Setup> setup = BuildSetup(round_seed);
    if (round == 0 && setup_out != nullptr) *setup_out = setup;
    pass.rounds.push_back(RunRound(setup, round_seed, &clock, result));
  }
  pass.setup_s = clock.setup_s();
  pass.setup_samples = clock.setup_samples();
  pass.latency_p50_ms = clock.StudentLatency(0.50);
  pass.latency_p90_ms = clock.StudentLatency(0.90);
  pass.latency_p99_ms = clock.PooledLatency(0.99);
  pass.latency_samples = clock.latency_samples();
  return pass;
}

// The undistilled baseline the README compares DTDBD against: each student
// architecture trained alone for as many epochs as distillation runs.
// Returns the mean over the students (fned holds the mean bias).
Quality PlainStudents(const Setup& setup, uint64_t seed) {
  const data::NewsDataset& test = setup.splits.test;
  std::vector<int> labels, domains;
  for (const data::NewsSample& s : test.samples) {
    labels.push_back(s.label);
    domains.push_back(s.domain);
  }
  Quality mean;
  for (const char* arch : kStudents) {
    models::ModelConfig config = setup.config;
    config.seed = seed + 31;
    auto plain = models::CreateModel(arch, config);
    TrainOptions options;
    options.epochs = kDistillEpochs;
    options.seed = seed + 1234;
    TrainSupervised(plain.get(), setup.splits.train, &setup.splits.val,
                    options);
    const Quality q = EvaluateQuality(Predict(plain.get(), test), labels,
                                      domains, test.num_domains());
    mean.macro_f1 += q.macro_f1 / std::size(kStudents);
    mean.fned += q.bias() / std::size(kStudents);
  }
  return mean;
}

void Count(const PassStats& pass, RunResult* result) {
  for (const RoundStats& r : pass.rounds) {
    result->attempted += r.operations;
    result->failed += r.failed;
  }
}

}  // namespace

RunResult RunDistill(const RunOptions& options) {
  RunResult result;
  SetNumThreads(kKernelThreads);
  std::shared_ptr<const Setup> setup;
  const PassStats pass =
      RunPass(options.seed, options.seconds, kMinRounds, &result, &setup);
  Count(pass, &result);

  const RoundStats& first = pass.rounds.front();
  std::vector<double> f1s, biases;
  for (int r = 0; r < kMinRounds; ++r) {
    f1s.insert(f1s.end(), pass.rounds[r].f1.begin(), pass.rounds[r].f1.end());
    biases.insert(biases.end(), pass.rounds[r].bias.begin(),
                  pass.rounds[r].bias.end());
  }
  const double f1 = Median(f1s);
  const double bias = Median(biases);
  result.AddEndToEnd("setup_s", pass.setup_s, "s");
  result.AddEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  result.AddEndToEnd("throughput_per_s", pass.train_samples_per_s(), "1/s");
  result.AddEndToEnd("latency_p50_ms", pass.latency_p50_ms, "ms");
  result.AddEndToEnd("latency_p90_ms", pass.latency_p90_ms, "ms");

  JsonObject inputs;
  inputs.Add("corpus", "Weibo21Config")
      .Add("corpus_scale", kCorpusScale)
      .Add("samples", setup->dataset.size())
      .Add("train", setup->splits.train.size())
      .Add("val", setup->splits.val.size())
      .Add("test", setup->splits.test.size())
      .Add("rounds", static_cast<int64_t>(pass.rounds.size()))
      .Add("setup_samples", pass.setup_samples)
      .Add("latency_samples", pass.latency_samples)
      .Add("latency_p99_ms", pass.latency_p99_ms);
  JsonObject quality;
  quality.Add("student_f1", f1).Add("student_bias", bias);
  result.details.Add("inputs", inputs).Add("students", quality);
  if (!options.trace) return result;

  // Traced run. Pass B: one round at 1 kernel thread, untraced, for the
  // thread-count contract and the parallel-speedup base.
  SetNumThreads(1);
  const PassStats one = RunPass(options.seed, 0.0, 1, &result, nullptr);
  Count(one, &result);
  bool same = one.rounds[0].student_p_fake.size() == first.student_p_fake.size();
  for (size_t i = 0; same && i < first.student_p_fake.size(); ++i) {
    same = SameBits(one.rounds[0].student_p_fake[i], first.student_p_fake[i]);
  }
  result.Check(same, "student predictions differ between 1 and " +
                         std::to_string(kKernelThreads) + " kernel threads");

  // Pass C: one traced round at the workload's thread count, with op
  // profiling on.
  SetNumThreads(kKernelThreads);
  const double rss_before = PeakRssMb();
  tensor::ResetOpStats();
  tensor::SetOpProfiling(true);
  std::shared_ptr<const Setup> traced_setup;
  const PassStats traced =
      RunPass(options.seed, 0.0, 1, &result, &traced_setup);
  tensor::SetOpProfiling(false);
  Count(traced, &result);
  const RoundStats& t = traced.rounds[0];
  const double steps = static_cast<double>(t.steps);
  tensor::OpStats total;
  for (const auto& [name, op] : t.train_ops) {
    total.nodes += op.nodes;
    total.allocs += op.allocs;
    total.bytes += op.bytes;
  }
  const auto& op_stats = t.train_ops;

  // FrozenEncoder::Encode at the training batch shape.
  double encode_us = 0.0;
  {
    data::DataLoader loader(&traced_setup->splits.train, 32, false, 0);
    const int64_t start = NowNs();
    for (int64_t b = 0; b < loader.num_batches(); ++b) {
      const data::Batch batch = loader.GetBatch(b);
      (void)traced_setup->encoder->Encode(batch.tokens, batch.batch_size,
                                          batch.seq_len);
    }
    encode_us = static_cast<double>(NowNs() - start) / 1e3 /
                static_cast<double>(traced_setup->splits.train.size());
  }

  result.AddLayer("data.corpus_s", setup->corpus_s, "s");
  result.AddLayer("text.encode_us_per_sample", encode_us, "us");
  result.AddLayer("dtdbd.dat_teacher_samples_per_s",
                  first.dat_samples / first.dat_s, "1/s");
  result.AddLayer("dtdbd.clean_teacher_samples_per_s",
                  first.clean_samples / first.clean_s, "1/s");
  result.AddLayer("dtdbd.distill_samples_per_s",
                  first.distill_samples / first.distill_s, "1/s");
  result.AddLayer("dtdbd.student_f1", f1, "ratio");
  result.AddLayer("dtdbd.student_bias", bias, "ratio");
  result.AddLayer("tensor.nodes_per_step", total.nodes / steps, "count");
  result.AddLayer("tensor.allocs_per_step", total.allocs / steps, "count");
  result.AddLayer("tensor.bytes_per_step", total.bytes / steps, "B");
  for (const char* op : kReportedOps) {
    const auto it = op_stats.find(op);
    const double ns = it == op_stats.end()
                          ? 0.0
                          : static_cast<double>(it->second.forward_ns +
                                                it->second.backward_ns);
    result.AddLayer(std::string("tensor.op_us.") + op, ns / 1e3 / steps, "us");
  }
  const double rate_2t = first.train_samples() / first.train_s();
  const double rate_1t = one.rounds[0].train_samples() / one.rounds[0].train_s();
  result.AddLayer("thread_pool.parallel_speedup", rate_2t / rate_1t, "ratio");
  result.AddLayer("thread_pool.train_samples_per_s_1t", rate_1t, "1/s");
  result.AddLayer("thread_pool.train_samples_per_s_2t", rate_2t, "1/s");

  // Tracing overhead, as a cost: the traced round minus the untraced first
  // round, and for throughput the untraced minus the traced rate.
  result.AddLayer("overhead.setup_s", traced.setup_s - pass.setup_s, "s");
  result.AddLayer("overhead.peak_rss_mb", PeakRssMb() - rss_before, "MiB");
  result.AddLayer("overhead.throughput_per_s",
                  rate_2t - t.train_samples() / t.train_s(), "1/s");
  result.AddLayer("overhead.latency_p50_ms",
                  traced.latency_p50_ms - pass.latency_p50_ms, "ms");
  result.AddLayer("overhead.latency_p90_ms",
                  traced.latency_p90_ms - pass.latency_p90_ms, "ms");

  const Quality plain =
      PlainStudents(*traced_setup, RoundSeed(options.seed, 0));
  JsonObject compare;
  compare.Add("plain_student_f1", plain.macro_f1)
      .Add("plain_student_bias", plain.bias())
      .Add("dtdbd_student_f1", Median(t.f1))
      .Add("dtdbd_student_bias", Median(t.bias));
  result.details.Add("plain_vs_dtdbd", compare);
  result.details.Add("op_stats", tensor::FormatOpStats());
  return result;
}

}  // namespace perfbench
