// Workloads `serve_zoo` and `serve_zipf`: trained zoo models behind one
// serve::Server (1 worker, 1 kernel thread, prediction cache on) and the
// socket front end, driven over loopback TCP by closed-loop clients that
// keep a fixed number of requests in flight.
//
//  * serve_zoo: MDFEND, BiGRU, MoSE and BERT in one fleet; one client with
//    kZooInFlight requests in flight, so the worker always has the next
//    forward queued. Every request is distinct, so every one is a cache
//    miss plus an insert and runs a batch-of-one forward.
//  * serve_zipf: MDFEND alone; two clients with kZipfInFlight requests in
//    flight each, replaying a zipf(1.2) trace over a hot set already in the
//    cache, so every request is a cache hit and the forward does not run.
//
// Why closed loops that keep the server busy: on the 4-vCPU virtual
// machine these figures come from, an idle core's wake-up is late by up to
// milliseconds depending on the host's load. An open loop at half capacity
// and a one-request-at-a-time client both measured those wake-ups more
// than the server, and their medians moved 2-3x between runs (README).
//
// The deployed fleet is part of the system under test, not an input: it is
// trained on a corpus with a fixed seed, once per run and before set-up is
// timed. The run's seed draws the traffic (which test samples and models,
// the zipf hot set and trace). Set-up (corpus, encoder, models holding the
// trained weights, server, socket, warm-up) is timed before the load and
// between its segments (SetupClock), and its median reported. Every answer
// is checked against PredictFakeProbability of the trained model on the
// same content.
//
// Throughput and latency percentiles are computed per one-second window of
// the load and reported as the median over windows, so a burst of host
// noise moves one window rather than the run's figures.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "dtdbd/trainer.h"
#include "models/model.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/registry.h"
#include "text/frozen_encoder.h"

namespace perfbench {
namespace {

using namespace dtdbd;

// Corpus: Weibo21-like at half the paper's size, split 40/5/55; the fleet
// trains on the first part and requests come from the last.
constexpr double kCorpusScale = 0.5;
constexpr uint64_t kFleetSeed = 2024;
constexpr int kTrainEpochs = 3;
constexpr int kSetupRepeats = 2;
constexpr int kWarmupPerModel = 4;
constexpr double kWindowSeconds = 1.0;
// The load runs in segments of about this length; set-up is timed between
// them.
constexpr double kSegmentSeconds = 2.0;
const char* const kZooFleet[] = {"MDFEND", "BiGRU", "MoSE", "BERT"};
// Per-model cache budget for serve_zoo: full after the first seconds, so
// the run's memory stops growing and inserts evict from then on.
constexpr int64_t kZooCacheBytes = 256 << 10;
constexpr int kZooInFlight = 4;
// Distinct requests planned per second of run; well above the fleet's
// capacity, so the plan never runs out.
constexpr int64_t kZooMaxRate = 5000;
// serve_zipf: zipf exponent, clients and a cache budget that holds the hot
// set, which is the whole test split in a seed-drawn rank order.
constexpr double kZipfExponent = 1.2;
constexpr int64_t kZipfCacheBytes = 1 << 20;
constexpr int kZipfClients = 2;
constexpr int kZipfInFlight = 8;
constexpr int64_t kZipfTraceLength = 1 << 21;
// Probes of the traced run.
constexpr int kProbeRequests = 300;

serve::InferenceRequest RequestFor(const data::NewsSample& sample,
                                   const std::string& model) {
  serve::InferenceRequest request;
  request.tokens = sample.tokens;
  request.domain = sample.domain;
  request.style = sample.style;
  request.emotion = sample.emotion;
  request.model_name = model;
  return request;
}

// How long a client waits for the server before it counts a failure.
constexpr int64_t kAnswerTimeoutNs = 30'000'000'000;

// A load-generator client that never sleeps waiting for an answer: it
// polls its non-blocking socket, so its core never idles between a
// request and its answer, and wake-up latency stays out of the numbers.
class SpinClient {
 public:
  SpinClient() = default;
  ~SpinClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  SpinClient(const SpinClient&) = delete;
  SpinClient& operator=(const SpinClient&) = delete;

  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Status::IoError("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::IoError("connect() failed");
    }
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    (void)::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return Status::Ok();
  }

  Status Send(uint64_t id, const serve::InferenceRequest& request) {
    const std::string frame = net::EncodeRequestFrame(id, 0, request);
    const int64_t deadline_ns = NowNs() + kAnswerTimeoutNs;
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        return Status::IoError("send failed");
      } else if (NowNs() > deadline_ns) {
        return Status::DeadlineExceeded("server stopped reading");
      }
    }
    return Status::Ok();
  }

  // Send, then Receive, requiring the answer to echo `id`.
  Status Call(uint64_t id, const serve::InferenceRequest& request,
              net::WireResponse* response) {
    DTDBD_RETURN_IF_ERROR(Send(id, request));
    DTDBD_RETURN_IF_ERROR(Receive(response, NowNs() + kAnswerTimeoutNs));
    if (response->request_id != id) {
      return Status::Internal("answer for another request id");
    }
    return Status::Ok();
  }

  // Polls until one whole response frame has arrived, or `deadline_ns`.
  Status Receive(net::WireResponse* response, int64_t deadline_ns) {
    while (true) {
      if (buffer_.size() >= net::kFrameHeaderSize) {
        net::FrameHeader header;
        net::DecodeFrameHeader(
            reinterpret_cast<const uint8_t*>(buffer_.data()), &header);
        bool trusted = false;
        DTDBD_RETURN_IF_ERROR(
            net::ValidateHeader(header, net::kDefaultMaxFrameBytes, &trusted));
        const size_t frame = net::kFrameHeaderSize + header.payload_len;
        if (buffer_.size() >= frame) {
          response->request_id = header.request_id;
          const Status status = net::DecodeResponsePayload(
              reinterpret_cast<const uint8_t*>(buffer_.data()) +
                  net::kFrameHeaderSize,
              header.payload_len, response, header.version);
          buffer_.erase(0, frame);
          return status;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
      } else if (n == 0) {
        return Status::Unavailable("server closed the connection");
      } else if (errno != EAGAIN && errno != EINTR) {
        return Status::IoError("recv failed");
      } else if (NowNs() > deadline_ns) {
        return Status::DeadlineExceeded("no answer in time");
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

// A corpus, its encoder and the fleet's model names. The fleet is trained
// once per run on its own Fleet; every set-up repetition builds a new
// Fleet and serves fresh models that hold copies of the trained weights.
struct Fleet {
  data::NewsDataset dataset;
  data::DatasetSplits splits;
  std::unique_ptr<text::FrozenEncoder> encoder;
  models::ModelConfig config;
  serve::RequestLimits limits;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<models::FakeNewsModel>> trained;
  double corpus_s = 0.0;

  // Model m built on this fleet's encoder with `weights`' trained values.
  std::unique_ptr<models::FakeNewsModel> Copy(const Fleet& weights,
                                              size_t m) const {
    auto model = models::CreateModel(names[m], config);
    const auto from = weights.trained[m]->NamedParameters();
    for (auto& [name, param] : model->NamedParameters()) {
      param.CopyDataFrom(from.at(name));
    }
    return model;
  }
};

void BuildCorpus(Fleet* fleet) {
  const uint64_t seed = kFleetSeed;
  const int64_t start = NowNs();
  fleet->dataset = data::GenerateCorpus(data::Weibo21Config(kCorpusScale, seed));
  fleet->corpus_s = SecondsSince(start);
  Rng split_rng(seed * 7919 + 11);
  fleet->splits = data::StratifiedSplit(fleet->dataset, 0.4, 0.05, &split_rng);
  fleet->encoder = std::make_unique<text::FrozenEncoder>(
      fleet->dataset.vocab->size(), 32, seed + 21);
  fleet->config.vocab_size = fleet->dataset.vocab->size();
  fleet->config.num_domains = fleet->dataset.num_domains();
  fleet->config.encoder = fleet->encoder.get();
  fleet->config.seed = seed + 5;
  fleet->limits.vocab_size = fleet->config.vocab_size;
  fleet->limits.num_domains = fleet->config.num_domains;
  fleet->limits.seq_len = fleet->dataset.seq_len;
}

// Trains every fleet model on the train split; returns seconds per model.
JsonObject TrainFleet(Fleet* fleet) {
  JsonObject train_s;
  for (const std::string& name : fleet->names) {
    auto model = models::CreateModel(name, fleet->config);
    TrainOptions options;
    options.epochs = kTrainEpochs;
    options.seed = kFleetSeed + 1234;
    const int64_t start = NowNs();
    TrainSupervised(model.get(), fleet->splits.train, nullptr, options);
    train_s.Add(name, SecondsSince(start));
    fleet->trained.push_back(std::move(model));
  }
  return train_s;
}

// One server + socket front end over a fleet.
struct Stack {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::SocketServer> net;
};

Status BuildStack(const Fleet& fleet, const Fleet& weights,
                  int64_t cache_bytes, Stack* stack) {
  serve::ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 1;
  options.max_queue_depth = 1 << 16;
  options.watchdog_period_nanos = 0;
  options.cache_bytes = cache_bytes;
  options.default_model_name = fleet.names[0];
  stack->server = std::make_unique<serve::Server>(
      std::make_unique<serve::InferenceSession>(fleet.Copy(weights, 0),
                                                fleet.limits, 1),
      std::move(options));
  for (size_t m = 1; m < fleet.names.size(); ++m) {
    const Status added = stack->server->AddModel(
        fleet.names[m], std::make_unique<serve::InferenceSession>(
                            fleet.Copy(weights, m), fleet.limits, 1));
    if (!added.ok()) return added;
  }
  net::SocketServerOptions net_options;
  net_options.max_connections = 4;
  net_options.max_inflight_per_connection = 1 << 16;
  net_options.idle_timeout_ms = 120'000;
  net_options.max_outbox_bytes = 64u << 20;
  stack->net = std::make_unique<net::SocketServer>(stack->server.get(),
                                                   net_options);
  return stack->net->Start();
}

// Warm-up: every model answers kWarmupPerModel train-split samples, in
// process and over a socket. Train samples never appear in the load.
Status WarmUp(const Fleet& fleet, Stack* stack) {
  SpinClient client;
  DTDBD_RETURN_IF_ERROR(client.Connect(stack->net->port()));
  uint64_t id = 0;
  for (const std::string& name : fleet.names) {
    for (int i = 0; i < kWarmupPerModel; ++i) {
      const auto request = RequestFor(fleet.splits.train.samples[i], name);
      DTDBD_RETURN_IF_ERROR(stack->server->Predict(request).status());
      const auto other =
          RequestFor(fleet.splits.train.samples[i + kWarmupPerModel], name);
      net::WireResponse response;
      DTDBD_RETURN_IF_ERROR(client.Call(++id, other, &response));
      if (response.code != net::WireCode::kOk) {
        return Status::Internal("warm-up request failed: " + response.message);
      }
    }
  }
  return Status::Ok();
}

// Builds the corpus and trains the fleet; not part of set-up time.
std::unique_ptr<Fleet> TrainedFleet(const std::vector<std::string>& names,
                                    RunResult* result) {
  auto fleet = std::make_unique<Fleet>();
  fleet->names = names;
  BuildCorpus(fleet.get());
  result->details.Add("train_s", TrainFleet(fleet.get()));
  return fleet;
}

void Shutdown(Stack* stack) {
  if (stack->net != nullptr) stack->net->Stop();
  if (stack->server != nullptr) stack->server->Stop();
}

// What one set-up builds: a fleet and the server stack over it. The
// stack's models use the fleet's encoder, so the stack is destroyed first.
struct Deployment {
  std::unique_ptr<Fleet> fleet;
  Stack stack;
};

// One set-up, counted as one operation: corpus, split and encoder, then
// models holding the trained weights, server, socket and warm-up. Returns
// its seconds.
double SetUp(const Fleet& weights, int64_t cache_bytes, Deployment* out,
             RunResult* result) {
  const int64_t start = NowNs();
  out->fleet = std::make_unique<Fleet>();
  out->fleet->names = weights.names;
  BuildCorpus(out->fleet.get());
  Status status = BuildStack(*out->fleet, weights, cache_bytes, &out->stack);
  if (status.ok()) status = WarmUp(*out->fleet, &out->stack);
  const double seconds = SecondsSince(start);
  ++result->attempted;
  if (!status.ok()) {
    ++result->failed;
    result->op_errors.push_back("set-up: " + status.ToString());
  }
  return seconds;
}

// Set-up time. One set-up takes 30-60 ms, and the speed of the shared host
// the figures come from wanders by 20-30% over seconds, so set-ups timed
// back to back measure one moment of it. Instead set-up is timed before
// the load and kSetupRepeats times between its segments, each time on a
// throwaway deployment while the load's clients wait, and setup_s is the
// median of all of them.
class SetupClock {
 public:
  SetupClock(const Fleet& weights, int64_t cache_bytes, RunResult* result)
      : weights_(weights), cache_bytes_(cache_bytes), result_(result) {}
  // Sets up `out`, timed.
  void SetUpFor(Deployment* out) {
    times_.push_back(SetUp(weights_, cache_bytes_, out, result_));
  }
  void Sample() {
    for (int i = 0; i < kSetupRepeats; ++i) {
      Deployment throwaway;
      SetUpFor(&throwaway);
    }
  }
  double median() const { return Median(times_); }
  int64_t samples() const { return static_cast<int64_t>(times_.size()); }

 private:
  const Fleet& weights_;
  const int64_t cache_bytes_;
  RunResult* const result_;
  std::vector<double> times_;
};

// Deltas of the serving counters over a load phase.
struct ServeCounters {
  int64_t hits = 0, misses = 0, deduped = 0, inserted = 0, evicted = 0;
  int64_t served_ok = 0, batches = 0;
  double queue_wait_ms = 0.0, compute_ms = 0.0, batch_elements = 0.0;

  static ServeCounters From(const serve::HealthReport& h) {
    ServeCounters c;
    for (const serve::ModelHealth& m : h.models) {
      c.hits += m.cache.hits;
      c.misses += m.cache.misses;
      c.deduped += m.cache.deduped;
      c.inserted += m.cache.inserted;
      c.evicted += m.cache.evicted;
    }
    c.served_ok = h.served_ok;
    c.batches = h.batches_run;
    c.queue_wait_ms = h.queue_wait_ms_total;
    c.compute_ms = h.compute_ms_total;
    c.batch_elements = h.avg_batch_size * static_cast<double>(h.batches_run);
    return c;
  }
  ServeCounters Minus(const ServeCounters& b) const {
    ServeCounters d;
    d.hits = hits - b.hits;
    d.misses = misses - b.misses;
    d.deduped = deduped - b.deduped;
    d.inserted = inserted - b.inserted;
    d.evicted = evicted - b.evicted;
    d.served_ok = served_ok - b.served_ok;
    d.batches = batches - b.batches;
    d.queue_wait_ms = queue_wait_ms - b.queue_wait_ms;
    d.compute_ms = compute_ms - b.compute_ms;
    d.batch_elements = batch_elements - b.batch_elements;
    return d;
  }
};

// The content of one distinct request: test sample `sample` for fleet
// model `model`. A model that has seen every test sample sees them again
// with the first style feature shifted by `pass`, so no content repeats.
struct KeyPlan {
  int model = 0;
  int sample = 0;
  int pass = 0;
};

// A workload's traffic: the distinct contents, and the key of the i-th
// request (an empty sequence means request i has key i).
struct Traffic {
  std::vector<KeyPlan> keys;
  std::vector<int> sequence;

  int Key(int64_t i) const {
    return sequence.empty()
               ? static_cast<int>(i)
               : sequence[static_cast<size_t>(i) % sequence.size()];
  }
  int64_t size() const {
    return sequence.empty() ? static_cast<int64_t>(keys.size())
                            : std::numeric_limits<int64_t>::max();
  }
};

data::NewsSample SampleFor(const Fleet& fleet, const KeyPlan& plan) {
  data::NewsSample s = fleet.splits.test.samples[static_cast<size_t>(plan.sample)];
  if (plan.pass > 0) s.style[0] += 0.001f * static_cast<float>(plan.pass);
  return s;
}

serve::InferenceRequest Content(const Fleet& fleet, const KeyPlan& plan) {
  return RequestFor(SampleFor(fleet, plan),
                    fleet.names[static_cast<size_t>(plan.model)]);
}

// What a load phase measured. Latencies go into fixed-size histograms,
// one per window, so the benchmark's own memory does not grow with the
// number of requests; `windows` holds the whole windows of every segment
// in order. Per key: the label and p_fake first answered.
struct LoadStats {
  explicit LoadStats(size_t keys) : key_label(keys, -1), key_p_fake(keys, 0.0f) {}

  void Record(double done_s, double latency_ms) {
    const auto w = static_cast<size_t>(done_s / kWindowSeconds);
    if (w < windows.size()) windows[w].Add(latency_ms);
    all.Add(latency_ms);
  }
  // Adds another client's answers and counts (not its windows).
  void Merge(const LoadStats& other) {
    all.Merge(other.all);
    for (size_t k = 0; k < key_label.size(); ++k) {
      if (key_label[k] < 0 && other.key_label[k] >= 0) {
        key_label[k] = other.key_label[k];
        key_p_fake[k] = other.key_p_fake[k];
      }
    }
    sent += other.sent;
    ok += other.ok;
  }
  int64_t distinct() const {
    return std::count_if(key_label.begin(), key_label.end(),
                         [](int l) { return l >= 0; });
  }

  std::vector<LatencyHistogram> windows;
  LatencyHistogram all;
  std::vector<int> key_label;  // -1 = not answered
  std::vector<float> key_p_fake;
  int64_t sent = 0;
  int64_t ok = 0;
  double elapsed_s = 0.0;
  ServeCounters counters;
};

// Checks one answer to a request for `key`: ok, a label that is
// p_fake >= 0.5, the requested model, and a p_fake bitwise equal to every
// earlier answer for the same key. Records the first answer per key.
bool CheckAnswer(const Fleet& fleet, const Traffic& traffic, int key,
                 const net::WireResponse& got, LoadStats* stats,
                 RunResult* result) {
  if (got.code != net::WireCode::kOk) {
    result->op_errors.push_back("request " + std::to_string(got.request_id) +
                                ": " + got.message);
    return false;
  }
  const serve::Prediction& p = got.prediction;
  result->Check(p.label == (p.p_fake >= 0.5f ? 1 : 0),
                "label is not p_fake >= 0.5 for request " +
                    std::to_string(got.request_id));
  const std::string& model =
      fleet.names[static_cast<size_t>(traffic.keys[static_cast<size_t>(key)].model)];
  result->Check(p.model_name == model,
                "answered by " + p.model_name + " instead of " + model);
  const auto k = static_cast<size_t>(key);
  if (stats->key_label[k] < 0) {
    stats->key_label[k] = p.label;
    stats->key_p_fake[k] = p.p_fake;
  } else {
    result->Check(SameBits(p.p_fake, stats->key_p_fake[k]),
                  "two answers for one content differ");
  }
  return true;
}

void Merge(const RunResult& from, RunResult* into) {
  into->failures.insert(into->failures.end(), from.failures.begin(),
                        from.failures.end());
  into->op_errors.insert(into->op_errors.end(), from.op_errors.begin(),
                         from.op_errors.end());
}

// Every answered key's p_fake must equal PredictFakeProbability of the
// trained model on the same content, batched per model.
void CheckReferences(const Fleet& weights, const Traffic& traffic,
                     const LoadStats& stats, RunResult* result) {
  for (size_t m = 0; m < weights.names.size(); ++m) {
    data::NewsDataset batch;
    batch.vocab = weights.dataset.vocab;
    batch.domain_names = weights.dataset.domain_names;
    batch.seq_len = weights.dataset.seq_len;
    std::vector<size_t> keys;
    for (size_t k = 0; k < traffic.keys.size(); ++k) {
      if (stats.key_label[k] < 0 ||
          traffic.keys[k].model != static_cast<int>(m)) {
        continue;
      }
      batch.samples.push_back(SampleFor(weights, traffic.keys[k]));
      keys.push_back(k);
    }
    if (keys.empty()) continue;
    const std::vector<float> want =
        PredictFakeProbability(weights.trained[m].get(), batch);
    int64_t mismatches = 0;
    for (size_t j = 0; j < keys.size(); ++j) {
      mismatches += !SameBits(want[j], stats.key_p_fake[keys[j]]);
    }
    result->Check(mismatches == 0,
                  std::to_string(mismatches) + " answers of " +
                      weights.names[m] +
                      " differ from PredictFakeProbability");
  }
}

// One segment of the closed loop: `clients` threads, each on its own
// connection with `in_flight` requests outstanding, send requests
// *next_index, *next_index + 1, ... of `traffic` until `seconds` have
// passed and their answers are in; a new request is sent only when an
// answer arrives. Adds the segment's answers and whole windows to `stats`.
void RunLoad(const Fleet& fleet, const Traffic& traffic, int clients,
             int in_flight, double seconds, int64_t* next_index,
             LoadStats* stats, Stack* stack, RunResult* result) {
  std::atomic<int64_t> next{*next_index};
  const size_t windows =
      static_cast<size_t>(std::ceil(seconds / kWindowSeconds)) + 1;
  std::vector<LoadStats> partial(static_cast<size_t>(clients),
                                 LoadStats(traffic.keys.size()));
  for (LoadStats& p : partial) {
    p.key_label = stats->key_label;
    p.key_p_fake = stats->key_p_fake;
    p.windows.resize(windows);
  }
  std::vector<RunResult> checks(static_cast<size_t>(clients));
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadStats& mine = partial[static_cast<size_t>(c)];
      RunResult& check = checks[static_cast<size_t>(c)];
      SpinClient client;
      if (const Status s = client.Connect(stack->net->port()); !s.ok()) {
        check.op_errors.push_back("connect: " + s.ToString());
        return;
      }
      struct Pending {
        uint64_t id = 0;
        int key = 0;
        int64_t sent_ns = 0;
      };
      std::vector<Pending> pending;
      while (true) {
        while (static_cast<int>(pending.size()) < in_flight &&
               NowNs() < stop) {
          const int64_t i = next.fetch_add(1);
          if (i >= traffic.size()) break;
          const Pending p{static_cast<uint64_t>(i), traffic.Key(i), NowNs()};
          ++mine.sent;
          const Status s = client.Send(
              p.id, Content(fleet, traffic.keys[static_cast<size_t>(p.key)]));
          if (!s.ok()) {
            check.op_errors.push_back("send: " + s.ToString());
            return;
          }
          pending.push_back(p);
        }
        if (pending.empty()) break;
        net::WireResponse response;
        if (const Status s =
                client.Receive(&response, NowNs() + kAnswerTimeoutNs);
            !s.ok()) {
          check.op_errors.push_back("receive: " + s.ToString());
          return;
        }
        const int64_t now = NowNs();
        const auto it = std::find_if(
            pending.begin(), pending.end(),
            [&](const Pending& p) { return p.id == response.request_id; });
        if (it == pending.end()) {
          check.Check(false, "unexpected or repeated answer for id " +
                                 std::to_string(response.request_id));
          continue;
        }
        const Pending done = *it;
        pending.erase(it);
        if (!CheckAnswer(fleet, traffic, done.key, response, &mine, &check)) {
          continue;
        }
        mine.Record(static_cast<double>(now - start) / 1e9,
                    static_cast<double>(now - done.sent_ns) / 1e6);
        ++mine.ok;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s = SecondsSince(start);
  *next_index = std::min(next.load(), traffic.size());
  const size_t whole = std::clamp<size_t>(
      static_cast<size_t>(elapsed_s / kWindowSeconds), 1, windows);
  for (size_t w = 0; w < whole; ++w) {
    LatencyHistogram window;
    for (const LoadStats& p : partial) window.Merge(p.windows[w]);
    stats->windows.push_back(std::move(window));
  }
  stats->elapsed_s += elapsed_s;
  for (int c = 0; c < clients; ++c) {
    stats->Merge(partial[static_cast<size_t>(c)]);
    Merge(checks[static_cast<size_t>(c)], result);
  }
}

// serve_zoo traffic: request i goes to a uniformly drawn fleet model and
// takes the next test sample of that model's own shuffled order.
Traffic ZooTraffic(const Fleet& fleet, uint64_t seed, int64_t requests) {
  Rng rng(seed * 31337 + 7);
  const int samples = static_cast<int>(fleet.splits.test.samples.size());
  std::vector<std::vector<int>> order(fleet.names.size());
  for (auto& o : order) {
    for (int i = 0; i < samples; ++i) o.push_back(i);
    rng.Shuffle(&o);
  }
  std::vector<int> seen(fleet.names.size(), 0);
  Traffic traffic;
  for (int64_t i = 0; i < requests; ++i) {
    const auto m = static_cast<int>(
        rng.UniformInt(static_cast<int64_t>(fleet.names.size())));
    const int k = seen[static_cast<size_t>(m)]++;
    traffic.keys.push_back(
        {m, order[static_cast<size_t>(m)][static_cast<size_t>(k % samples)],
         k / samples});
  }
  return traffic;
}

// serve_zipf traffic: every test sample, shuffled; rank r (0-based) is
// requested with probability proportional to (r + 1)^-kZipfExponent.
Traffic ZipfTraffic(const Fleet& fleet, uint64_t seed) {
  Rng rng(seed * 104729 + 3);
  std::vector<int> order;
  for (size_t i = 0; i < fleet.splits.test.samples.size(); ++i) {
    order.push_back(static_cast<int>(i));
  }
  rng.Shuffle(&order);
  Traffic traffic;
  for (const int sample : order) traffic.keys.push_back({0, sample, 0});
  const int hot = static_cast<int>(order.size());
  std::vector<double> cdf(static_cast<size_t>(hot));
  double sum = 0.0;
  for (int r = 0; r < hot; ++r) {
    sum += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = sum;
  }
  traffic.sequence.resize(kZipfTraceLength);
  for (int& key : traffic.sequence) {
    const double u = rng.Uniform() * sum;
    key = std::min(static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(),
                                                     u) -
                                    cdf.begin()),
                   hot - 1);
  }
  return traffic;
}

// Requests every hot key once in process, so the cache holds the hot set
// before the load; records the answers. Returns the counters over the fill.
ServeCounters FillCache(const Fleet& fleet, const Traffic& traffic,
                        Stack* stack, LoadStats* stats, RunResult* result) {
  const ServeCounters before = ServeCounters::From(stack->server->Health());
  for (size_t k = 0; k < traffic.keys.size(); ++k) {
    ++result->attempted;
    const StatusOr<serve::Prediction> got =
        stack->server->Predict(Content(fleet, traffic.keys[k]));
    if (!got.ok()) {
      ++result->failed;
      result->op_errors.push_back("cache fill: " + got.status().ToString());
      continue;
    }
    stats->key_label[k] = got.value().label;
    stats->key_p_fake[k] = got.value().p_fake;
  }
  return ServeCounters::From(stack->server->Health()).Minus(before);
}

// Over the fill and the load together, every request but the first of
// each distinct key must be a cache hit or an in-flight dedup join, and
// nothing may be evicted.
void CheckZipfCounters(const Traffic& traffic, const ServeCounters& fill,
                       const LoadStats& stats, RunResult* result) {
  const auto distinct = static_cast<int64_t>(traffic.keys.size());
  const int64_t requests = distinct + stats.ok;
  const int64_t reused = fill.hits + fill.deduped + stats.counters.hits +
                         stats.counters.deduped;
  result->Check(reused == requests - distinct,
                "serve_zipf: hits + dedup joins " + std::to_string(reused) +
                    " != requests " + std::to_string(requests) +
                    " - distinct keys " + std::to_string(distinct));
  result->Check(fill.evicted + stats.counters.evicted == 0,
                "serve_zipf: cache evictions");
}

void CheckZooCounters(const LoadStats& stats, RunResult* result) {
  result->Check(stats.counters.hits == 0 && stats.counters.deduped == 0,
                "serve_zoo: " + std::to_string(stats.counters.hits) +
                    " cache hits and " +
                    std::to_string(stats.counters.deduped) +
                    " dedup joins on distinct requests");
  result->Check(stats.counters.inserted == stats.ok,
                "serve_zoo: " + std::to_string(stats.counters.inserted) +
                    " cache inserts for " + std::to_string(stats.ok) +
                    " requests");
}

// Macro-F1 and FNED+FPED of the served labels, each distinct content
// counted once (reported in the details line).
Quality AnsweredQuality(const Fleet& fleet, const Traffic& traffic,
                        const LoadStats& stats) {
  std::vector<int> preds, labels, domains;
  for (size_t k = 0; k < traffic.keys.size(); ++k) {
    if (stats.key_label[k] < 0) continue;
    const data::NewsSample& s =
        fleet.splits.test.samples[static_cast<size_t>(traffic.keys[k].sample)];
    preds.push_back(stats.key_label[k]);
    labels.push_back(s.label);
    domains.push_back(s.domain);
  }
  return EvaluateQuality(preds, labels, domains, fleet.dataset.num_domains());
}

// Completions per second and latency percentiles in each whole window of
// the run, each reported as its median over the windows.
struct Windowed {
  std::vector<double> rates;
  double throughput_per_s = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

Windowed WindowMedians(const LoadStats& stats) {
  Windowed w;
  std::vector<double> p50, p90, p99;
  for (const LatencyHistogram& window : stats.windows) {
    w.rates.push_back(static_cast<double>(window.count()) / kWindowSeconds);
    p50.push_back(window.Quantile(0.50));
    p90.push_back(window.Quantile(0.90));
    p99.push_back(window.Quantile(0.99));
  }
  w.throughput_per_s = Median(w.rates);
  w.p50_ms = Median(p50);
  w.p90_ms = Median(p90);
  w.p99_ms = Median(p99);
  return w;
}

void AddEndToEnd(double setup_s, const Windowed& w, RunResult* result) {
  result->AddEndToEnd("setup_s", setup_s, "s");
  result->AddEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  result->AddEndToEnd("throughput_per_s", w.throughput_per_s, "1/s");
  result->AddEndToEnd("latency_p50_ms", w.p50_ms, "ms");
  result->AddEndToEnd("latency_p90_ms", w.p90_ms, "ms");
}

void AddServeLayers(const LoadStats& stats, RunResult* result) {
  const ServeCounters& c = stats.counters;
  const double served = static_cast<double>(std::max<int64_t>(c.served_ok, 1));
  const double batches = static_cast<double>(std::max<int64_t>(c.batches, 1));
  const double lookups = static_cast<double>(c.hits + c.misses);
  result->AddLayer("serve.queue_wait_us", c.queue_wait_ms * 1e3 / served, "us");
  result->AddLayer("serve.avg_batch_size", c.batch_elements / batches, "count");
  result->AddLayer("serve.compute_us", c.compute_ms * 1e3 / batches, "us");
  result->AddLayer("serve.cache_inserts", static_cast<double>(c.inserted),
                   "count");
  result->AddLayer("serve.cache_evictions", static_cast<double>(c.evicted),
                   "count");
  result->AddLayer("serve.cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(c.hits) / lookups : 0.0,
                   "ratio");
}

// Tracing overhead, as a cost: the traced phase's end-to-end values minus
// the untraced ones, and for throughput the untraced minus the traced; for
// peak_rss_mb, `rss_growth` of the process peak across the probes and the
// traced phase.
void AddOverhead(const std::vector<Metric>& untraced,
                 const std::vector<Metric>& traced, double rss_growth,
                 RunResult* result) {
  for (size_t i = 0; i < untraced.size() && i < traced.size(); ++i) {
    const std::string& name = untraced[i].name;
    double delta = traced[i].value - untraced[i].value;
    if (name == "peak_rss_mb") delta = rss_growth;
    if (name == "throughput_per_s") delta = -delta;
    result->AddLayer("overhead." + name, delta, untraced[i].unit);
  }
}

// Batch-of-one InferenceSession::Predict per fleet model: median time
// with op profiling off, then graph counts per request with it on.
void ProbeSessions(const Fleet& fleet, const Fleet& weights,
                   RunResult* result) {
  const auto& test = fleet.splits.test.samples;
  for (size_t m = 0; m < fleet.names.size(); ++m) {
    serve::InferenceSession session(fleet.Copy(weights, m), fleet.limits, 1);
    std::vector<double> us;
    for (int i = 0; i < kProbeRequests; ++i) {
      const auto request = RequestFor(test[i % test.size()], "");
      const int64_t start = NowNs();
      const bool ok = session.Predict(request).ok();
      us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      result->Check(ok, "probe predict failed");
    }
    tensor::ResetOpStats();
    tensor::SetOpProfiling(true);
    for (int i = 0; i < kProbeRequests; ++i) {
      (void)session.Predict(RequestFor(test[i % test.size()], ""));
    }
    tensor::SetOpProfiling(false);
    const tensor::OpStats total = tensor::TotalOpStats();
    const std::string& name = fleet.names[m];
    result->AddLayer("session.predict_us." + name, Median(us), "us");
    result->AddLayer("tensor.allocs_per_request." + name,
                     static_cast<double>(total.allocs) / kProbeRequests,
                     "count");
    result->AddLayer("tensor.bytes_per_request." + name,
                     static_cast<double>(total.bytes) / kProbeRequests, "B");
  }
  std::vector<double> us;
  for (int i = 0; i < kProbeRequests; ++i) {
    const data::NewsSample& s = test[i % test.size()];
    const int64_t start = NowNs();
    (void)fleet.encoder->Encode(s.tokens, 1,
                                static_cast<int64_t>(s.tokens.size()));
    us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  result->AddLayer("text.encode_us_per_sample", Median(us), "us");
}

// Socket round trip minus in-process Submit for the same requests,
// interleaved: the median of the per-request differences, in µs. The
// in-process median goes to `submit_us`.
double ProbeNet(Stack* stack, const std::vector<serve::InferenceRequest>& probe,
                RunResult* result, double* submit_us) {
  SpinClient client;
  if (!result->Check(client.Connect(stack->net->port()).ok(),
                     "net probe connect failed")) {
    return 0.0;
  }
  std::vector<double> local, diff;
  for (size_t i = 0; i < probe.size(); ++i) {
    int64_t start = NowNs();
    const bool ok = stack->server->Submit(probe[i]).get().ok();
    local.push_back(static_cast<double>(NowNs() - start) / 1e3);
    result->Check(ok, "in-process probe request failed");
    net::WireResponse response;
    start = NowNs();
    const Status s = client.Call(i + 1, probe[i], &response);
    diff.push_back(static_cast<double>(NowNs() - start) / 1e3 - local.back());
    result->Check(s.ok() && response.code == net::WireCode::kOk,
                  "socket probe request failed");
  }
  *submit_us = Median(local);
  return Median(diff);
}

JsonObject LoadDetails(const LoadStats& stats, const Windowed& w) {
  JsonObject d;
  d.Add("sent", stats.sent)
      .Add("ok", stats.ok)
      .Add("elapsed_s", stats.elapsed_s)
      .Add("windows", static_cast<int64_t>(w.rates.size()))
      .Add("window_rate_min", Quantile(w.rates, 0.0))
      .Add("window_rate_max", Quantile(w.rates, 1.0))
      .Add("p99_ms", w.p99_ms)
      .Add("whole_run_throughput_per_s",
           static_cast<double>(stats.ok) / stats.elapsed_s)
      .Add("whole_run_p50_ms", stats.all.Quantile(0.50))
      .Add("whole_run_p99_ms", stats.all.Quantile(0.99))
      .Add("latency_samples", stats.all.count())
      .Add("distinct_keys", stats.distinct())
      .Add("cache_hits", stats.counters.hits)
      .Add("cache_misses", stats.counters.misses)
      .Add("deduped", stats.counters.deduped)
      .Add("cache_inserted", stats.counters.inserted)
      .Add("cache_evicted", stats.counters.evicted);
  return d;
}

std::vector<std::string> Names(bool zoo) {
  if (!zoo) return {kZooFleet[0]};
  return std::vector<std::string>(std::begin(kZooFleet), std::end(kZooFleet));
}

// Both serve workloads: train the fleet, set up, generate the traffic, run
// the closed loop, check every answer and the cache counters, and report.
RunResult RunServe(const RunOptions& options, bool zoo) {
  RunResult result;
  SetNumThreads(1);
  const auto trained = TrainedFleet(Names(zoo), &result);
  const int64_t cache_bytes = zoo ? kZooCacheBytes : kZipfCacheBytes;
  const Traffic traffic =
      zoo ? ZooTraffic(*trained, options.seed,
                       kZooMaxRate * static_cast<int64_t>(options.seconds + 1))
          : ZipfTraffic(*trained, options.seed);
  const int clients = zoo ? 1 : kZipfClients;
  const int in_flight = zoo ? kZooInFlight : kZipfInFlight;

  // One measured phase: set-up of `d`, timed with others by a new clock
  // (its median goes to `setup_s`); the cache fill (zipf); the load in
  // segments with set-up timed between them; and the oracles.
  auto phase = [&](Deployment* d, double seconds, double* setup_s) {
    SetupClock clock(*trained, cache_bytes, &result);
    clock.Sample();
    clock.SetUpFor(d);
    LoadStats stats(traffic.keys.size());
    const ServeCounters fill =
        zoo ? ServeCounters()
            : FillCache(*d->fleet, traffic, &d->stack, &stats, &result);
    const ServeCounters before =
        ServeCounters::From(d->stack.server->Health());
    const int segments =
        std::max(1, static_cast<int>(std::lround(seconds / kSegmentSeconds)));
    int64_t next_index = 0;
    for (int i = 0; i < segments; ++i) {
      if (i > 0) clock.Sample();
      RunLoad(*d->fleet, traffic, clients, in_flight, seconds / segments,
              &next_index, &stats, &d->stack, &result);
    }
    stats.counters =
        ServeCounters::From(d->stack.server->Health()).Minus(before);
    *setup_s = clock.median();
    result.attempted += stats.sent;
    result.failed += stats.sent - stats.ok;
    if (zoo) {
      CheckZooCounters(stats, &result);
    } else {
      CheckZipfCounters(traffic, fill, stats, &result);
    }
    CheckReferences(*trained, traffic, stats, &result);
    return stats;
  };

  Deployment deployment;
  double setup_s = 0.0;
  const LoadStats stats = phase(&deployment, options.seconds, &setup_s);
  const Fleet& fleet = *deployment.fleet;
  const Windowed windowed = WindowMedians(stats);
  AddEndToEnd(setup_s, windowed, &result);
  const Quality quality = AnsweredQuality(fleet, traffic, stats);
  JsonObject served;
  served.Add("macro_f1", quality.macro_f1).Add("bias", quality.bias());
  JsonObject inputs;
  inputs.Add("corpus_scale", kCorpusScale)
      .Add("test_samples", fleet.splits.test.size())
      .Add("clients", clients)
      .Add("in_flight_per_client", in_flight)
      .Add("cache_bytes_per_model", cache_bytes);
  if (!zoo) inputs.Add("zipf_exponent", kZipfExponent);
  result.details.Add("inputs", inputs)
      .Add("served_labels", served)
      .Add("load", LoadDetails(stats, windowed));
  if (!options.trace) return result;

  // Probes. serve_zipf measures socket against in-process on its warm
  // stack, where both are cache hits; serve_zoo on a cache-off stack, where
  // both run the forward.
  const double rss_before = PeakRssMb();
  std::vector<serve::InferenceRequest> probe;
  for (int i = 0; i < kProbeRequests; ++i) {
    probe.push_back(
        Content(fleet, traffic.keys[static_cast<size_t>(traffic.Key(i))]));
  }
  double submit_us = 0.0;
  Stack& stack = deployment.stack;
  if (zoo) {
    Shutdown(&stack);
    stack = Stack();
    result.Check(BuildStack(fleet, *trained, 0, &stack).ok(),
                 "net probe stack failed to start");
  }
  result.AddLayer("net.overhead_us",
                  ProbeNet(&stack, probe, &result, &submit_us), "us");
  if (!zoo) result.AddLayer("serve.hit_us", submit_us, "us");
  Shutdown(&stack);
  ProbeSessions(fleet, *trained, &result);

  // Traced phase: a fresh deployment, half the run, op profiling on.
  RunResult traced;
  Deployment traced_deployment;
  double traced_setup_s = 0.0;
  tensor::SetOpProfiling(true);
  const LoadStats tstats =
      phase(&traced_deployment, options.seconds / 2, &traced_setup_s);
  tensor::SetOpProfiling(false);
  AddEndToEnd(traced_setup_s, WindowMedians(tstats), &traced);

  result.AddLayer("data.corpus_s", fleet.corpus_s, "s");
  AddServeLayers(stats, &result);
  AddOverhead(result.end_to_end, traced.end_to_end, PeakRssMb() - rss_before,
              &result);
  result.details.Add("traced_load", LoadDetails(tstats, WindowMedians(tstats)));
  return result;
}

}  // namespace

RunResult RunServeZoo(const RunOptions& options) {
  return RunServe(options, true);
}

RunResult RunServeZipf(const RunOptions& options) {
  return RunServe(options, false);
}

}  // namespace perfbench
