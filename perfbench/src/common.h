// Shared pieces of the DTDBD benchmark program: clocks, the run result and
// its JSON form, percentiles, the independent quality evaluator the
// oracles compare against.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();
double SecondsSince(int64_t start_ns);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Nearest-rank quantile (q in [0, 1]) of unsorted values; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Latency histogram with fixed memory: logarithmic buckets 0.5% wide from
// 0.1 µs to 100 s. Quantiles interpolate inside the bucket, so they read
// as continuous values.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double ms);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

// Minimal ordered JSON object writer.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, int64_t value);
  JsonObject& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& Add(const std::string& key, const JsonObject& value);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one workload run produces. `failures` holds the message of
// every oracle that did not hold; any entry makes the run incorrect. An
// operation that returns an error counts in `failed` and leaves its
// message in `op_errors`; the oracles speak only of the operations that
// succeeded.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;
  std::vector<std::string> op_errors;
  JsonObject details;

  // Records an oracle outcome; returns `ok` so callers can stop early.
  bool Check(bool ok, const std::string& what);
  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

// The paper's evaluation protocol (macro-F1, FNED, FPED with fake as the
// positive class), computed here from raw predictions so it can be checked
// against metrics::Evaluate. Rates with an empty denominator are 0 and a
// domain with no samples adds nothing to the bias sums, as in the paper's
// reference code.
struct Quality {
  double macro_f1 = 0.0;
  double fned = 0.0;
  double fped = 0.0;
  double bias() const { return fned + fped; }
};
Quality EvaluateQuality(const std::vector<int>& predictions,
                        const std::vector<int>& labels,
                        const std::vector<int>& domains, int num_domains);
// Macro-F1 of always answering the majority label.
double MajorityMacroF1(const std::vector<int>& labels);

// One benchmark invocation. The workload's inputs are a pure function of
// `seed`; `seconds` is how long the measured phase runs.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

RunResult RunDistill(const RunOptions& options);
RunResult RunServeZoo(const RunOptions& options);
RunResult RunServeZipf(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
