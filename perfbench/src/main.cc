// dtdbd_perfbench: runs one benchmark workload and prints its result.
//
//   dtdbd_perfbench --workload distill|serve_zoo|serve_zipf --seed N
//                   --seconds S --trace 0|1
//
// Standard output carries a `details` JSON line (host fingerprint, inputs,
// oracle failures, per-workload extras) and, as its last line, the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set; a
// metric a workload does not exercise reads 0 (see README.md). The exit
// code is 0 whenever a result was printed, correct or not.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "tensor/registry.h"

namespace perfbench {
namespace {

// Every metric BENCHMARK.json declares, in its order, with its unit.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
};

const std::vector<std::pair<std::string, std::string>>& PerLayer() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"data.corpus_s", "s"},
        {"text.encode_us_per_sample", "us"},
        {"dtdbd.dat_teacher_samples_per_s", "1/s"},
        {"dtdbd.clean_teacher_samples_per_s", "1/s"},
        {"dtdbd.distill_samples_per_s", "1/s"},
        {"dtdbd.student_f1", "ratio"},
        {"dtdbd.student_bias", "ratio"},
        {"tensor.nodes_per_step", "count"},
        {"tensor.allocs_per_step", "count"},
        {"tensor.bytes_per_step", "B"},
        {"tensor.op_us.Conv1dSeqRelu", "us"},
        {"tensor.op_us.MatMul", "us"},
        {"tensor.op_us.Tanh", "us"},
        {"tensor.op_us.Add", "us"},
        {"tensor.op_us.Sigmoid", "us"},
        {"thread_pool.parallel_speedup", "ratio"},
        {"thread_pool.train_samples_per_s_1t", "1/s"},
        {"thread_pool.train_samples_per_s_2t", "1/s"},
    };
    for (const char* model : {"MDFEND", "BiGRU", "MoSE", "BERT"}) {
      m->push_back({std::string("session.predict_us.") + model, "us"});
    }
    for (const char* model : {"MDFEND", "BiGRU", "MoSE", "BERT"}) {
      m->push_back({std::string("tensor.allocs_per_request.") + model, "count"});
      m->push_back({std::string("tensor.bytes_per_request.") + model, "B"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"serve.queue_wait_us", "us"},
        {"serve.avg_batch_size", "count"},
        {"serve.compute_us", "us"},
        {"serve.cache_inserts", "count"},
        {"serve.cache_evictions", "count"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.hit_us", "us"},
        {"net.overhead_us", "us"},
    };
    m->insert(m->end(), rest.begin(), rest.end());
    for (const auto& [name, unit] : kEndToEnd) {
      m->push_back({"overhead." + name, unit});
    }
    return m;
  }();
  return *metrics;
}

// Orders the reported metrics as declared, fills a metric the workload
// did not exercise with 0, and rejects an undeclared one.
bool Collect(const std::vector<std::pair<std::string, std::string>>& declared,
             const std::vector<Metric>& reported, JsonObject* out,
             std::vector<std::string>* errors) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : reported) by_name[m.name] = &m;
  for (const auto& [name, unit] : declared) {
    const auto it = by_name.find(name);
    double value = 0.0;
    if (it != by_name.end()) {
      if (it->second->unit != unit) {
        errors->push_back("metric " + name + " reported in " +
                          it->second->unit + ", declared in " + unit);
      }
      value = it->second->value;
      by_name.erase(it);
    }
    JsonObject metric;
    metric.Add("value", value).Add("unit", unit);
    out->Add(name, metric);
  }
  for (const auto& [name, metric] : by_name) {
    errors->push_back("undeclared metric " + name);
  }
  return errors->empty();
}

int Usage() {
  std::fprintf(stderr,
               "usage: dtdbd_perfbench --workload distill|serve_zoo|serve_zipf"
               " --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace")) {
    return Usage();
  }
  RunOptions options;
  char* end = nullptr;
  options.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage();
  options.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0.0)) return Usage();
  if (args["trace"] != "0" && args["trace"] != "1") return Usage();
  options.trace = args["trace"] == "1";

  const std::string workload = args["workload"];
  RunResult result;
  int serve_workers = 0;
  if (workload == "distill") {
    result = RunDistill(options);
  } else if (workload == "serve_zoo") {
    result = RunServeZoo(options);
    serve_workers = 1;
  } else if (workload == "serve_zipf") {
    result = RunServeZipf(options);
    serve_workers = 1;
  } else {
    return Usage();
  }

  JsonObject metrics;
  std::vector<std::string> errors;
  Collect(options.trace ? PerLayer() : kEndToEnd,
          options.trace ? result.per_layer : result.end_to_end, &metrics,
          &errors);
  for (const std::string& e : errors) result.Check(false, e);

  JsonObject fingerprint;
  fingerprint.Add("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Add("avx512f", static_cast<bool>(__builtin_cpu_supports("avx512f")))
      .Add("simd_enabled", dtdbd::tensor::SimdEnabled())
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("kernel_threads", dtdbd::GetNumThreads())
      .Add("serve_workers", serve_workers);
  JsonObject failures;
  for (size_t i = 0; i < result.failures.size() && i < 20; ++i) {
    failures.Add(std::to_string(i), result.failures[i]);
  }
  JsonObject op_errors;
  for (size_t i = 0; i < result.op_errors.size() && i < 20; ++i) {
    op_errors.Add(std::to_string(i), result.op_errors[i]);
  }
  JsonObject details;
  details.Add("workload", workload)
      .Add("seed", static_cast<int64_t>(options.seed))
      .Add("seconds", options.seconds)
      .Add("trace", options.trace)
      .Add("fingerprint", fingerprint)
      .Add("oracle_failures", static_cast<int64_t>(result.failures.size()))
      .Add("first_failures", failures)
      .Add("first_op_errors", op_errors)
      .Add("workload_details", result.details);
  std::printf("%s\n", details.ToString().c_str());

  JsonObject out;
  out.Add("correct", result.failures.empty())
      .Add("attempted", result.attempted)
      .Add("failed", result.failed)
      .Add("metrics", metrics);
  std::printf("%s\n", out.ToString().c_str());
  std::fflush(stdout);
  return 0;
}
