#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {
constexpr double kHistogramMinMs = 1e-4;
constexpr double kHistogramGrowth = 1.005;
const double kLogGrowth = std::log(kHistogramGrowth);
const size_t kHistogramBuckets =
    static_cast<size_t>(std::log(1e5 / kHistogramMinMs) / kLogGrowth) + 1;
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistogramBuckets, 0) {}

void LatencyHistogram::Add(double ms) {
  const double position = std::log(std::max(ms, kHistogramMinMs) /
                                   kHistogramMinMs) / kLogGrowth;
  const size_t bucket =
      std::min(static_cast<size_t>(position), buckets_.size() - 1);
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))), 1,
      count_);
  int64_t before = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (before + buckets_[i] >= rank) {
      const double within = (static_cast<double>(rank - before) - 0.5) /
                            static_cast<double>(buckets_[i]);
      return kHistogramMinMs *
             std::exp((static_cast<double>(i) + within) * kLogGrowth);
    }
    before += buckets_[i];
  }
  return 0.0;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

JsonObject& JsonObject::Add(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.ToString());
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

bool RunResult::Check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
  return ok;
}

namespace {

struct Counts {
  int64_t tp = 0, fp = 0, tn = 0, fn = 0;
  void Add(int pred, int label) {
    if (pred == 1) {
      ++(label == 1 ? tp : fp);
    } else {
      ++(label == 1 ? fn : tn);
    }
  }
  static double Ratio(int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  }
  static double F1(int64_t hit, int64_t false_alarm, int64_t miss) {
    const double precision = Ratio(hit, hit + false_alarm);
    const double recall = Ratio(hit, hit + miss);
    return precision + recall > 0.0
               ? 2.0 * precision * recall / (precision + recall)
               : 0.0;
  }
  double Fnr() const { return Ratio(fn, fn + tp); }
  double Fpr() const { return Ratio(fp, fp + tn); }
  double MacroF1() const { return 0.5 * (F1(tp, fp, fn) + F1(tn, fn, fp)); }
  int64_t total() const { return tp + fp + tn + fn; }
};

}  // namespace

Quality EvaluateQuality(const std::vector<int>& predictions,
                        const std::vector<int>& labels,
                        const std::vector<int>& domains, int num_domains) {
  Counts overall;
  std::vector<Counts> per_domain(static_cast<size_t>(num_domains));
  for (size_t i = 0; i < predictions.size(); ++i) {
    overall.Add(predictions[i], labels[i]);
    per_domain[static_cast<size_t>(domains[i])].Add(predictions[i], labels[i]);
  }
  Quality q;
  q.macro_f1 = overall.MacroF1();
  for (const Counts& c : per_domain) {
    if (c.total() == 0) continue;
    q.fned += std::abs(overall.Fnr() - c.Fnr());
    q.fped += std::abs(overall.Fpr() - c.Fpr());
  }
  return q;
}

double MajorityMacroF1(const std::vector<int>& labels) {
  int64_t fake = 0;
  for (const int l : labels) fake += l == 1;
  const int majority = 2 * fake >= static_cast<int64_t>(labels.size()) ? 1 : 0;
  Counts c;
  for (const int l : labels) c.Add(majority, l);
  return c.MacroF1();
}

}  // namespace perfbench
