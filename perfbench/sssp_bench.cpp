// sssp_bench.cpp — the served-query benchmark program.
//
// Drives the library only through its public front door, from graph to
// served answer:
//
//   EdgeList::to_matrix -> GraphPlan -> sssp::warm_plan
//     -> GraphPlan::save / GraphPlan::load -> serving::SsspServer
//     -> submit / wait
//
// --seed draws the weights and the source sequence; the graph's shape is
// fixed per workload.  It runs the workload's closed loop for --seconds,
// checks every answer, and writes the raw samples as JSON to --out.
// perfbench/run.py turns the samples into metrics; all percentile and ratio
// arithmetic lives there (perfbench/harness.py) so it can be unit-tested.
//
// With --trace 1 it also records spans around every public call it makes
// (kept in memory, written to --spans at exit), spends --seconds in
// alternating untraced and traced slices for the tracing-overhead figure,
// and times direct warm SsspSolver::solve calls on the workload's own
// sources.
//
// Usage:
//   sssp_bench --workload grid-unique|rmat-hot|paper-graphblas --seed N
//              --seconds S --trace 0|1 --workdir DIR --out FILE
//              [--spans FILE]

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "serving/server.hpp"
#include "sssp/plan.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using dsg::Index;
using dsg::serving::ServerStats;
using dsg::serving::SsspServer;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  int clients;             ///< closed-loop client threads
  int workers;             ///< server worker threads
  bool unique_sources;     ///< every timed query uses a source not seen before
  int hot_set;             ///< size of the warmed hot-source set (0 = none)
  double hot_share;        ///< share of queries drawn from the hot set
  std::optional<dsg::sssp::Algorithm> algorithm;  ///< per-query override
  bool bypass_cache;
};

// paper-graphblas keeps one query in flight, so it gets one worker: with
// two, successive queries alternate between threads and their caches.
const Workload kWorkloads[] = {
    {"grid-unique", 4, 2, true, 0, 0.0, std::nullopt, false},
    {"rmat-hot", 2, 2, false, 64, 0.75, std::nullopt, false},
    {"paper-graphblas", 1, 1, false, 0, 0.0, dsg::sssp::Algorithm::kGraphblas,
     true},
};

// setup_s is the median of at least kMinSetups set-ups, repeated until they
// have taken kMinSetupSeconds, so a short set-up is sampled often.
constexpr std::size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;
constexpr std::size_t kMinSamples = 100;  // p90 needs 10 samples beyond it
constexpr std::size_t kMinSolves = 100;
constexpr double kHardStopFactor = 6.0;   // phase cap when samples are short

// ---------------------------------------------------------------------------
// Seeded inputs

class Rng {  // splitmix64: fixed output on every platform and library
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

struct Inputs {
  dsg::EdgeList edges;
  std::vector<Index> hot;        ///< warmed hot set (rmat-hot only)
  std::vector<Index> warmup;     ///< untimed warm-up sources
  std::vector<Index> sequence;   ///< timed source sequence, consumed in order
};

// Undirected R-MAT (a, b, c = 0.57, 0.19, 0.19) drawn from `shape`,
// self-loops and duplicate pairs dropped, one weight per pair drawn from
// `weights` uniformly in [0.1, 10).  Not dsg::generate_rmat: that emits
// directed unit-weight edges with duplicates, and its draws come from
// std::uniform_real_distribution, whose output the standard leaves to the
// library, so one seed need not give one graph on every toolchain.
dsg::EdgeList make_rmat(unsigned scale, double edge_factor, Rng shape,
                        Rng& weights) {
  const Index n = Index{1} << scale;
  const auto m = static_cast<std::size_t>(edge_factor * static_cast<double>(n));
  std::vector<std::uint64_t> pairs;
  pairs.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    Index row = 0, col = 0;
    for (unsigned level = 0; level < scale; ++level) {
      const double r = shape.uniform();
      row <<= 1;
      col <<= 1;
      if (r < 0.57) {
      } else if (r < 0.76) {
        col |= 1;
      } else if (r < 0.95) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    if (row == col) continue;
    pairs.push_back((std::min(row, col) << 32) | std::max(row, col));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  dsg::EdgeList g(n);
  g.edges().reserve(2 * pairs.size());
  for (std::uint64_t p : pairs) {
    const Index u = p >> 32, v = p & 0xFFFFFFFFULL;
    const double w = 0.1 + 9.9 * weights.uniform();
    g.edges().push_back({u, v, w});
    g.edges().push_back({v, u, w});
  }
  return g;
}

std::vector<Index> non_isolated(const dsg::EdgeList& g) {
  std::vector<char> has_edge(g.num_vertices(), 0);
  for (const dsg::Edge& e : g.edges()) has_edge[e.src] = 1;
  std::vector<Index> out;
  for (Index v = 0; v < g.num_vertices(); ++v) {
    if (has_edge[v]) out.push_back(v);
  }
  return out;
}

// The graph's shape is fixed per workload; the seed draws the weights and
// the source sequence.  Sources are drawn from vertices with at least one
// edge, so no query is a trivial single-vertex solve.
Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 1);
  Inputs in;
  const std::string name = w.name;
  if (name == "grid-unique") {
    in.edges = dsg::generate_grid2d(256, 256);
  } else if (name == "rmat-hot") {
    in.edges = make_rmat(16, 12.0, Rng(16), rng);
  } else {
    in.edges = make_rmat(13, 12.0, Rng(13), rng);
  }
  std::vector<Index> pool = non_isolated(in.edges);
  constexpr std::size_t kWarmup = 4;
  constexpr std::size_t kSequenceLength = std::size_t{1} << 18;
  if (w.unique_sources) {
    for (std::size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.below(i)]);
    }
    in.warmup.assign(pool.begin(), pool.begin() + kWarmup);
    in.sequence.assign(pool.begin() + kWarmup, pool.end());
    return in;
  }
  for (int h = 0; h < w.hot_set; ++h) {  // partial Fisher-Yates: distinct
    std::swap(pool[h], pool[h + rng.below(pool.size() - h)]);
    in.hot.push_back(pool[h]);
  }
  auto uniform = [&] { return pool[rng.below(pool.size())]; };
  if (in.hot.empty()) {
    for (std::size_t i = 0; i < kWarmup; ++i) in.warmup.push_back(uniform());
  }
  in.sequence.reserve(kSequenceLength);
  for (std::size_t i = 0; i < kSequenceLength; ++i) {
    const bool hot = !in.hot.empty() && rng.uniform() < w.hot_share;
    in.sequence.push_back(hot ? in.hot[rng.below(in.hot.size())] : uniform());
  }
  return in;
}

// ---------------------------------------------------------------------------
// Spans (kept in memory, written at exit)

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  std::int64_t query;    ///< sequence index of the query, -1 = none
  Clock::time_point start, end;
};

class SpanLog {  // one per thread; ids are unique across logs
 public:
  SpanLog(bool enabled, std::uint64_t lane)
      : enabled_(enabled), next_id_((lane << 40) + 1) {}
  std::uint64_t new_id() { return next_id_++; }
  void add(std::uint64_t id, const char* name, std::uint64_t parent,
           std::int64_t query, Clock::time_point start, Clock::time_point end) {
    if (enabled_) spans_.push_back({name, id, parent, query, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Times one call and records it as a child span of `parent`.
template <typename F>
auto traced_call(SpanLog& log, const char* name, std::uint64_t parent, F&& f) {
  const std::uint64_t id = log.new_id();
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    log.add(id, name, parent, -1, start, Clock::now());
  } else {
    auto out = f();
    log.add(id, name, parent, -1, start, Clock::now());
    return out;
  }
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Answers

std::uint64_t hash_distances(const std::vector<double>& dist) {
  std::uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                           0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
  };
  const std::size_t n = dist.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int k = 0; k < 4; ++k) {
      lane[k] = mix(lane[k], std::bit_cast<std::uint64_t>(dist[i + k]));
    }
  }
  for (; i < n; ++i) lane[0] = mix(lane[0], std::bit_cast<std::uint64_t>(dist[i]));
  std::uint64_t h = mix(n, lane[0]);
  for (int k = 1; k < 4; ++k) h = mix(h, lane[k]);
  return h;
}

enum class Outcome : std::uint8_t { kComplete, kNotComplete, kThrew };

struct Sample {
  std::size_t seq = 0;    ///< index into the source sequence
  Index source = 0;
  double latency_ms = 0;  ///< submit() call to wait() return
  bool repeat = false;    ///< the source had completed before this submit
  Outcome outcome = Outcome::kComplete;
  std::uint64_t hash = 0;
};

/// Hands out the source sequence to the clients and tracks which sources
/// have completed (a repeat query is one whose source completed earlier).
class Feed {
 public:
  explicit Feed(const std::vector<Index>& sequence) : sequence_(sequence) {}
  std::optional<std::pair<std::size_t, Index>> next() {
    std::lock_guard<std::mutex> lock(mu_);
    if (cursor_ >= sequence_.size()) return std::nullopt;
    const std::size_t i = cursor_++;
    return std::make_pair(i, sequence_[i]);
  }
  bool completed_before(Index source) const {
    std::lock_guard<std::mutex> lock(mu_);
    return completed_.count(source) != 0;
  }
  void finish(Index source, bool complete) {
    if (!complete) return;
    std::lock_guard<std::mutex> lock(mu_);
    completed_.insert(source);
  }

 private:
  const std::vector<Index>& sequence_;
  mutable std::mutex mu_;
  std::size_t cursor_ = 0;
  std::unordered_set<Index> completed_;
};

struct Phase {
  bool traced = false;
  double seconds = 0;
  std::vector<Sample> samples;
  ServerStats before, after;
};

SsspServer::Query make_query(const Workload& w, Index source) {
  SsspServer::Query q;
  q.source = source;
  q.algorithm = w.algorithm;
  q.bypass_cache = w.bypass_cache;
  return q;
}

Sample run_query(SsspServer& server, const Workload& w, Feed& feed,
                 std::size_t seq, Index source, SpanLog& log) {
  Sample s;
  s.seq = seq;
  s.source = source;
  s.repeat = feed.completed_before(source);
  const std::uint64_t qid = log.new_id(), sid = log.new_id(),
                      wid = log.new_id();
  const auto t0 = Clock::now();
  try {
    const SsspServer::Ticket ticket = server.submit(make_query(w, source));
    const auto t1 = Clock::now();
    const dsg::sssp::QueryResult r = server.wait(ticket);
    const auto t2 = Clock::now();
    s.latency_ms = ms_between(t0, t2);
    const auto q = static_cast<std::int64_t>(seq);
    log.add(sid, "submit", qid, q, t0, t1);
    log.add(wid, "wait", qid, q, t1, t2);
    log.add(qid, "query", 0, q, t0, t2);
    if (r.ok() && r.result.status == dsg::SsspStatus::kComplete) {
      s.hash = hash_distances(r.result.dist);
    } else {
      s.outcome = Outcome::kNotComplete;
    }
  } catch (const std::exception& e) {
    s.outcome = Outcome::kThrew;
    s.latency_ms = ms_between(t0, Clock::now());
    std::cerr << "sssp_bench: query for source " << source
              << " threw: " << e.what() << "\n";
  }
  feed.finish(source, s.outcome == Outcome::kComplete);
  return s;
}

/// Closed loop: each client submits one query and waits for its answer
/// before sending the next.  Runs for `seconds`, longer only until
/// `min_samples` answers are in.
Phase run_phase(SsspServer& server, const Workload& w, Feed& feed,
                double seconds, std::size_t min_samples,
                std::vector<SpanLog>& logs) {
  Phase phase;
  phase.before = server.stats();
  std::vector<std::vector<Sample>> per_client(w.clients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto hard_stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds * kHardStopFactor));
  std::mutex count_mu;
  std::size_t finished = 0;
  auto client = [&](int c) {
    for (;;) {
      const auto now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(count_mu);
        if (now >= hard_stop || (now >= deadline && finished >= min_samples)) {
          return;
        }
      }
      const auto item = feed.next();
      if (!item) return;
      per_client[c].push_back(run_query(server, w, feed, item->first,
                                        item->second, logs[c]));
      std::lock_guard<std::mutex> lock(count_mu);
      ++finished;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  phase.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  phase.after = server.stats();
  for (auto& v : per_client) {
    phase.samples.insert(phase.samples.end(), v.begin(), v.end());
  }
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const Sample& a, const Sample& b) { return a.seq < b.seq; });
  return phase;
}

/// Untimed: the clients drain `feed` as in the closed loop, so every worker
/// serves part of it.
std::vector<Sample> warm_up(SsspServer& server, const Workload& w, Feed& feed,
                            std::vector<SpanLog>& logs) {
  std::vector<std::vector<Sample>> per_client(w.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      while (const auto item = feed.next()) {
        per_client[c].push_back(run_query(server, w, feed, item->first,
                                          item->second, logs[c]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> out;
  for (auto& v : per_client) out.insert(out.end(), v.begin(), v.end());
  return out;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The traced run: untraced and traced slices in the order U T T U, block
/// after block, so a drift in the host's speed falls on both kinds alike.
/// Stops after a whole block once `seconds` have passed and the traced
/// slices hold kMinSamples answers.
std::vector<Phase> run_alternating(SsspServer& server, const Workload& w,
                                   Feed& feed, double seconds,
                                   std::vector<SpanLog>& quiet_logs,
                                   std::vector<SpanLog>& traced_logs) {
  constexpr int kBlock = 4;
  constexpr int kMinBlocks = 2;
  const double slice = seconds / (kBlock * kMinBlocks);
  std::vector<Phase> slices;
  std::size_t traced_samples = 0;
  const auto start = Clock::now();
  for (int k = 0;; ++k) {
    const bool traced = k % kBlock == 1 || k % kBlock == 2;
    slices.push_back(run_phase(server, w, feed, slice, 0,
                               traced ? traced_logs : quiet_logs));
    slices.back().traced = traced;
    if (traced) traced_samples += slices.back().samples.size();
    if ((k + 1) % kBlock != 0) continue;
    const double elapsed = seconds_since(start);
    if ((elapsed >= seconds && traced_samples >= kMinSamples) ||
        elapsed >= seconds * kHardStopFactor) {
      return slices;
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up: generated edge list -> server that accepts queries

struct Served {
  std::shared_ptr<const dsg::GraphPlan> plan;
  std::unique_ptr<SsspServer> server;
  double seconds = 0;
  std::uintmax_t plan_bytes = 0;
};

Served set_up(const dsg::EdgeList& edges, const Workload& w,
              const std::string& plan_path, SpanLog& log) {
  Served out;
  const std::uint64_t root = log.new_id();
  const auto start = Clock::now();
  {
    grb::Matrix<double> a = traced_call(log, "to_matrix", root,
                                        [&] { return edges.to_matrix(); });
    auto plan = traced_call(log, "plan_build", root, [&] {
      return std::make_unique<dsg::GraphPlan>(std::move(a));
    });
    traced_call(log, "warm_plan", root, [&] {
      dsg::sssp::warm_plan(*plan, dsg::sssp::auto_algorithm(*plan));
    });
    traced_call(log, "save", root, [&] { plan->save(plan_path); });
  }
  out.plan = traced_call(log, "load", root, [&] {
    return std::make_shared<const dsg::GraphPlan>(
        dsg::GraphPlan::load(plan_path));
  });
  dsg::serving::ServerOptions options;
  options.num_workers = w.workers;
  out.server = traced_call(log, "server_start", root, [&] {
    return std::make_unique<SsspServer>(out.plan, options);
  });
  const auto end = Clock::now();
  log.add(root, "setup", 0, -1, start, end);
  out.seconds = std::chrono::duration<double>(end - start).count();
  out.plan_bytes = std::filesystem::file_size(plan_path);
  return out;
}

// ---------------------------------------------------------------------------
// Direct solves and answer checking

struct SolveRecord {
  dsg::SsspStats stats;
  std::uint64_t reached = 0;
};

struct Reference {
  std::uint64_t hash = 0;
  bool valid = false;
  std::string error;
};

Reference check_answer(const grb::Matrix<double>& a, Index source,
                       const dsg::SsspResult& r) {
  Reference ref;
  ref.hash = hash_distances(r.dist);
  if (r.status != dsg::SsspStatus::kComplete) {
    ref.error = "reference solve did not complete";
    return ref;
  }
  const dsg::ValidationReport report = dsg::validate_sssp(a, source, r.dist);
  ref.valid = report.ok;
  if (!report.ok) ref.error = report.message;
  return ref;
}

/// Warm single-threaded SsspSolver::solve over `sources` in order, with
/// profile timers on.  Runs for at least `seconds` and kMinSolves solves
/// when there are that many sources.  Each answer is validated and
/// becomes the reference for its source.
std::vector<SolveRecord> direct_solves(
    const dsg::EdgeList& edges, const dsg::GraphPlan& plan,
    dsg::sssp::Algorithm algorithm, const std::vector<Index>& sources,
    double seconds, SpanLog& log, std::map<Index, Reference>& refs) {
  dsg::sssp::SolverOptions options;
  options.algorithm = algorithm;
  options.delta = plan.delta();
  options.profile = true;
  dsg::sssp::SsspSolver solver(edges.to_matrix(), options);
  if (!sources.empty()) solver.solve(sources.front());  // warm workspaces
  std::vector<SolveRecord> out;
  const auto start = Clock::now();
  const std::uint64_t root = log.new_id();
  for (Index source : sources) {
    if (seconds_since(start) >= seconds && out.size() >= kMinSolves) break;
    const std::uint64_t id = log.new_id();
    const auto t0 = Clock::now();
    const dsg::SsspResult r = solver.solve(source);
    const auto t1 = Clock::now();
    log.add(id, "solve", root, static_cast<std::int64_t>(out.size()), t0, t1);
    SolveRecord rec;
    rec.stats = r.stats;
    rec.reached = static_cast<std::uint64_t>(
        std::count_if(r.dist.begin(), r.dist.end(),
                      [](double d) { return d != dsg::kInfDist; }));
    out.push_back(rec);
    refs[source] = check_answer(plan.matrix(), source, r);
  }
  log.add(root, "direct_solves", 0, -1, start, Clock::now());
  return out;
}

/// Computes and validates a reference answer for every source in
/// `sources` that has none yet, on a few threads over the served plan.
/// The references come from the dijkstra core whatever the served
/// algorithm: it is the cheapest to run (a fused solve on the grid costs
/// more than ten of them), and every correct core gives the same bits, since
/// each final distance is the least of the same sums fl(dist[u] + w(u, v)).
void fill_references(const dsg::GraphPlan& plan,
                     const std::vector<Index>& sources,
                     std::map<Index, Reference>& refs) {
  std::vector<Index> todo;
  std::unordered_set<Index> queued;
  for (Index s : sources) {
    if (refs.find(s) == refs.end() && queued.insert(s).second) {
      todo.push_back(s);
    }
  }
  std::vector<Reference> found(todo.size());
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  const dsg::sssp::AlgorithmInfo& info =
      dsg::sssp::algorithm_info(dsg::sssp::Algorithm::kDijkstra);
  std::mutex mu;
  std::size_t next = 0;
  std::exception_ptr failure;
  auto worker = [&] {
    grb::Context ctx;
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= todo.size() || failure) return;
        i = next++;
      }
      try {
        found[i] = check_answer(plan.matrix(), todo[i],
                                info.run(plan, ctx, todo[i], {}));
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        failure = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
  for (std::size_t i = 0; i < todo.size(); ++i) refs[todo[i]] = found[i];
}

// ---------------------------------------------------------------------------
// Output

class Json {  // minimal writer for the raw-results file
 public:
  Json() { out_.precision(17); }
  void key(std::string_view k) {
    comma();
    out_ << '"' << k << "\":";
    fresh_ = true;
  }
  void open(char c) {
    comma();
    out_ << c;
    fresh_ = true;
  }
  void close(char c) {
    out_ << c;
    fresh_ = false;
  }
  template <typename T>
  void value(const T& v) {
    comma();
    if constexpr (std::is_same_v<T, bool>) {
      out_ << (v ? "true" : "false");
    } else if constexpr (std::is_arithmetic_v<T>) {
      out_ << v;
    } else {
      out_ << '"';
      for (char ch : std::string_view(v)) {
        if (ch == '"' || ch == '\\') out_ << '\\';
        out_ << (static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch);
      }
      out_ << '"';
    }
    fresh_ = false;
  }
  template <typename T>
  void field(std::string_view k, const T& v) {
    key(k);
    value(v);
  }
  template <typename T, typename F>
  void array(std::string_view k, const std::vector<T>& items, F&& get) {
    key(k);
    open('[');
    for (const T& item : items) value(get(item));
    close(']');
  }
  std::string str() const { return out_.str(); }

 private:
  void comma() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

void write_stats(Json& j, std::string_view k, const ServerStats& s) {
  j.key(k);
  j.open('{');
  j.field("submitted", s.submitted);
  j.field("completed", s.completed);
  j.field("failed", s.failed);
  j.field("deadline_expired", s.deadline_expired);
  j.field("cancelled", s.cancelled);
  j.field("cache_insert_failures", s.cache_insert_failures);
  j.field("cache_hits", s.cache.hits);
  j.field("cache_misses", s.cache.misses);
  j.field("cache_evictions", s.cache.evictions);
  j.close('}');
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 Clock::time_point epoch) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span file " + path);
  f.precision(17);
  f << "[\n";
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      f << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query
        << ",\"start_ms\":" << ms_between(epoch, s.start)
        << ",\"end_ms\":" << ms_between(epoch, s.end) << "}";
      first = false;
    }
  }
  f << "\n]\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload, workdir = ".", out, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.out.empty() || !(a.seconds > 0)) {
    throw std::invalid_argument("--out and a positive --seconds are required");
  }
  return a;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (!found) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *found;
  const Inputs in = make_inputs(w, args.seed);

  const auto epoch = Clock::now();
  // Lane 0 holds set-up and direct-solve spans, lanes 1.. the clients'.
  SpanLog main_log(args.trace, 0);
  std::vector<SpanLog> traced_logs, quiet_logs;
  for (int c = 0; c < w.clients; ++c) {
    traced_logs.emplace_back(true, static_cast<std::uint64_t>(c) + 1);
    quiet_logs.emplace_back(false, 0);
  }
  const std::string plan_path = (std::filesystem::path(args.workdir) /
                                 (std::string(w.name) + ".plan")).string();

  std::vector<double> setup_seconds;
  Served served;
  for (double total = 0; setup_seconds.size() < kMinSetups ||
                         total < kMinSetupSeconds;) {
    served = Served{};  // stop the previous server before the next set-up
    served = set_up(in.edges, w, plan_path, main_log);
    setup_seconds.push_back(served.seconds);
    total += served.seconds;
  }
  std::filesystem::remove(plan_path);
  SsspServer& server = *served.server;
  const dsg::sssp::Algorithm algorithm =
      w.algorithm.value_or(server.default_algorithm());

  // Untimed warm-up: the hot set (cached from here on) or a few sources.
  Feed warm_feed(in.hot.empty() ? in.warmup : in.hot);
  const std::vector<Sample> warm_samples =
      warm_up(server, w, warm_feed, quiet_logs);

  Feed feed(in.sequence);
  for (const Sample& s : warm_samples) {
    feed.finish(s.source, s.outcome == Outcome::kComplete);
  }
  std::vector<Phase> phases;
  if (args.trace) {
    phases = run_alternating(server, w, feed, args.seconds, quiet_logs,
                             traced_logs);
  } else {
    phases.push_back(
        run_phase(server, w, feed, args.seconds, kMinSamples, quiet_logs));
  }
  const double rss_mb = peak_rss_mb();

  // Every distinct answered source is checked once; the traced run's
  // direct solves double as the references for their sources.
  std::map<Index, Reference> refs;
  std::vector<SolveRecord> solves;
  if (args.trace) {
    std::vector<Index> order;
    std::unordered_set<Index> seen;
    for (const Phase& p : phases) {
      if (!p.traced) continue;
      for (const Sample& s : p.samples) {
        if (seen.insert(s.source).second) order.push_back(s.source);
      }
    }
    solves = direct_solves(in.edges, *served.plan, algorithm, order,
                           args.seconds / 2, main_log, refs);
  }
  std::vector<Index> answered;
  for (const Sample& s : warm_samples) answered.push_back(s.source);
  for (const Phase& p : phases) {
    for (const Sample& s : p.samples) answered.push_back(s.source);
  }
  fill_references(*served.plan, answered, refs);

  std::size_t invalid_sources = 0;
  std::string first_error;
  for (const auto& [source, ref] : refs) {
    if (!ref.valid) {
      ++invalid_sources;
      if (first_error.empty()) {
        first_error = "source " + std::to_string(source) + ": " + ref.error;
      }
    }
  }
  // A wrong answer differs from its source's validated reference by even
  // one bit; throws and incomplete queries are counted apart.
  auto count_wrong = [&](const std::vector<Sample>& samples) {
    std::size_t n = 0;
    for (const Sample& s : samples) {
      if (s.outcome != Outcome::kComplete) continue;
      const Reference& ref = refs.at(s.source);
      n += !ref.valid || ref.hash != s.hash;
    }
    return n;
  };
  std::size_t wrong_answers = count_wrong(warm_samples);
  for (const Phase& p : phases) wrong_answers += count_wrong(p.samples);

  Json j;
  j.open('{');
  j.field("algorithm", dsg::sssp::algorithm_info(algorithm).name);
  j.field("delta", served.plan->delta());
  j.field("num_vertices", served.plan->num_vertices());
  j.field("num_edges", served.plan->stats().num_edges);
  j.field("plan_bytes", served.plan_bytes);
  j.field("clients", w.clients);
  j.field("workers", w.workers);
  j.array("setup_s", setup_seconds, [](double v) { return v; });
  j.field("peak_rss_mb", rss_mb);
  j.key("phases");
  j.open('[');
  for (const Phase& p : phases) {
    j.open('{');
    j.field("traced", p.traced);
    j.field("seconds", p.seconds);
    j.field("wrong_answers", count_wrong(p.samples));
    j.array("latency_ms", p.samples, [](const Sample& s) { return s.latency_ms; });
    j.array("repeat", p.samples, [](const Sample& s) { return s.repeat; });
    j.array("outcome", p.samples, [](const Sample& s) {
      return static_cast<int>(s.outcome);
    });
    write_stats(j, "stats_before", p.before);
    write_stats(j, "stats_after", p.after);
    j.close('}');
  }
  j.close(']');
  j.key("solves");
  j.open('{');
  j.array("outer_iterations", solves,
          [](const SolveRecord& r) { return r.stats.outer_iterations; });
  j.array("light_phases", solves,
          [](const SolveRecord& r) { return r.stats.light_phases; });
  j.array("relax_requests", solves,
          [](const SolveRecord& r) { return r.stats.relax_requests; });
  j.array("reached", solves, [](const SolveRecord& r) { return r.reached; });
  j.array("light_s", solves,
          [](const SolveRecord& r) { return r.stats.light_seconds; });
  j.array("heavy_s", solves,
          [](const SolveRecord& r) { return r.stats.heavy_seconds; });
  j.array("vector_s", solves,
          [](const SolveRecord& r) { return r.stats.vector_seconds; });
  j.close('}');
  j.key("verify");
  j.open('{');
  j.field("distinct_sources", refs.size());
  j.field("invalid_sources", invalid_sources);
  j.field("wrong_answers", wrong_answers);
  j.field("first_error", first_error);
  j.close('}');
  j.close('}');

  if (args.trace && !args.spans.empty()) {
    traced_logs.push_back(std::move(main_log));
    write_spans(args.spans, traced_logs, epoch);
  }
  std::ofstream out(args.out);
  out << j.str() << "\n";
  if (!out) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "sssp_bench: " << e.what() << "\n";
    return 2;
  }
}
