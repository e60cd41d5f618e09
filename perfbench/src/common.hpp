#pragma once
// Shared pieces of the end-to-end benchmark: the clock, latency samples,
// the span recorder of traced runs, the host fingerprint and the result
// line the benchmark prints last.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Murmur3's 64-bit finalizer: a bijection, used for keys, values and seeds.
inline std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Peak resident set of this process so far, MiB.
inline double self_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline std::uint64_t cpu_ns(const rusage& ru) {
  auto tv = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(t.tv_usec) * 1000ULL;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Quantile q in [0,1] of integer samples, interpolated within the unit
/// bin of the value at rank q*n (the grouped-data percentile), so that a
/// median of nanosecond counts is not stuck on whole nanoseconds. Sorts `v`.
inline double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  const std::uint64_t x =
      v[std::min(static_cast<std::size_t>(rank), v.size() - 1)];
  const auto lo = std::lower_bound(v.begin(), v.end(), x) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), x) - v.begin();
  return static_cast<double>(x) - 0.5 +
         (rank - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

/// Fixed-capacity uniform sample of latencies (Algorithm R). The buffer is
/// written through once at construction, so the benchmark's own memory
/// does not grow with the number of operations a run completes. One
/// writer thread per reservoir.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : buf_(capacity, 0), rng_(seed | 1) {}

  void add(std::uint64_t ns) {
    if (seen_ < buf_.size()) {
      buf_[seen_++] = ns;
      return;
    }
    ++seen_;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t j = rng_ % seen_;
    if (j < buf_.size()) buf_[j] = ns;
  }
  void append_to(std::vector<std::uint64_t>& out) const {
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(
                                  std::min<std::uint64_t>(seen_, buf_.size())));
  }

 private:
  std::vector<std::uint64_t> buf_;
  std::uint64_t rng_;
  std::uint64_t seen_ = 0;
};

/// One client's view of the timed phase, cut into windows of kWidthNs:
/// per window, the operations completed, the time they took and a
/// sample of their latencies. The end-to-end figures are interquartile
/// means over windows: a burst of interference from outside the
/// benchmark moves a few windows, which the trimming drops, while a
/// slower stretch that covers much of the run shifts the result in
/// proportion instead of all or nothing. Memory is fixed by the run
/// length.
class Windows {
 public:
  static constexpr std::uint64_t kWidthNs = 500000000;

  Windows(double seconds, std::size_t samples_per_window, std::uint64_t seed)
      : n_(std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds * 1e9 / kWidthNs))),
        ops_(n_, 0),
        busy_(n_, 0) {
    for (std::size_t w = 0; w < n_; ++w) {
      samples_.emplace_back(samples_per_window, seed + w);
    }
  }

  /// Opens the first window at `t`.
  void begin(std::uint64_t t) { start_ = t; }

  /// `ops` operations that began at `begin` took `latency` ns together
  /// (one op, or one batch whose ops all share its latency).
  void add(std::uint64_t begin, std::uint64_t latency, std::uint64_t ops = 1) {
    if (begin < start_) return;
    const std::uint64_t w = (begin - start_) / kWidthNs;
    if (w >= n_) return;
    ops_[w] += ops;
    busy_[w] += latency;
    samples_[w].add(latency);
  }

  struct Summary {
    double throughput_ops_s = 0;  ///< interquartile mean over windows
    double p50_ns = 0;            ///< likewise, of each window's p50
    double p99_ns = 0;            ///< likewise for p99
    std::size_t windows = 0;
  };

  /// Merges clients window by window. With `busy`, a window's rate is its
  /// ops over the time they took (one client issuing back to back);
  /// otherwise its ops over the window's width (concurrent clients).
  static Summary summarize(const std::vector<const Windows*>& clients,
                           bool busy) {
    std::vector<double> tput, p50, p99;
    const std::size_t n = clients.empty() ? 0 : clients.front()->n_;
    for (std::size_t w = 0; w < n; ++w) {
      std::uint64_t ops = 0, spent = 0;
      std::vector<std::uint64_t> lat;
      for (const Windows* c : clients) {
        ops += c->ops_[w];
        spent += c->busy_[w];
        c->samples_[w].append_to(lat);
      }
      if (ops == 0) continue;
      const double width = static_cast<double>(busy ? spent : kWidthNs) / 1e9;
      tput.push_back(static_cast<double>(ops) / width);
      p50.push_back(quantile(lat, 0.5));
      p99.push_back(quantile(lat, 0.99));
    }
    Summary s;
    s.windows = tput.size();
    s.throughput_ops_s = interquartile_mean(tput);
    s.p50_ns = interquartile_mean(p50);
    s.p99_ns = interquartile_mean(p99);
    return s;
  }

 private:
  /// Mean of the values between the first and third quartiles.
  static double interquartile_mean(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
  }

  std::uint64_t start_ = 0;
  std::size_t n_;
  std::vector<std::uint64_t> ops_;
  std::vector<std::uint64_t> busy_;
  std::vector<Reservoir> samples_;
};

/// Span recorder for traced runs. Spans are kept in per-thread buffers and
/// written out once, at exit. A span has a name, a start, an end and the id
/// of the span that caused it; its self time is its duration minus the
/// part of it that its children cover. With tracing off every call is a
/// branch on `on()`.
class Tracer {
 public:
  using Id = std::uint32_t;
  struct Span {
    Id id;
    Id parent;
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  Id next_id() { return on_ ? next_.fetch_add(1, std::memory_order_relaxed) : 0; }

  void record(Id id, Id parent, const char* name, std::uint64_t start,
              std::uint64_t end) {
    if (!on_) return;
    buffer().push_back({id, parent, name, start, end});
  }
  /// Records a span with a fresh id.
  void record(Id parent, const char* name, std::uint64_t start,
              std::uint64_t end) {
    record(next_id(), parent, name, start, end);
  }

  /// RAII span around a block; `id` is valid for children while it lives.
  class Scope {
   public:
    Scope(Tracer& t, Id parent, const char* name)
        : t_(t), id(t.next_id()), parent_(parent), name_(name), start_(now_ns()) {}
    ~Scope() { t_.record(id, parent_, name_, start_, now_ns()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;

   public:
    const Id id;

   private:
    Id parent_;
    const char* name_;
    std::uint64_t start_;
  };

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, Totals> totals() const {
    std::vector<Span> all = gather();
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
      return a.parent != b.parent ? a.parent < b.parent : a.start < b.start;
    });
    // covered[id] = the part of span `id` its children cover (merged).
    std::vector<std::uint64_t> covered(next_.load(), 0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> bounds(next_.load(),
                                                                {0, 0});
    for (const Span& s : all) bounds[s.id] = {s.start, s.end};
    std::size_t i = 0;
    while (i < all.size()) {
      const Id parent = all[i].parent;
      std::uint64_t lo = 0, hi = 0, sum = 0;
      const auto [plo, phi] = bounds[parent];
      for (; i < all.size() && all[i].parent == parent; ++i) {
        const std::uint64_t a = std::max(all[i].start, plo);
        const std::uint64_t b = std::min(all[i].end, phi);
        if (b <= a) continue;
        if (a > hi) {
          sum += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      sum += hi - lo;
      if (parent != 0) covered[parent] = sum;
    }
    std::map<std::string, Totals> out;
    for (const Span& s : all) {
      Totals& t = out[s.name];
      const std::uint64_t d = s.end - s.start;
      ++t.count;
      t.total_ns += d;
      t.self_ns += d - std::min(d, covered[s.id]);
    }
    return out;
  }

  /// Writes every span (TSV) and the per-name summary next to it.
  void write(const std::string& stem) const {
    std::ofstream spans(stem + ".spans.tsv");
    spans << "id\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span& s : gather()) {
      spans << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start
            << '\t' << s.end << '\n';
    }
    std::ofstream sum(stem + ".summary.tsv");
    sum << "name\tcount\ttotal_ns\tself_ns\n";
    for (const auto& [name, t] : totals()) {
      sum << name << '\t' << t.count << '\t' << t.total_ns << '\t' << t.self_ns
          << '\n';
    }
  }

 private:
  std::vector<Span>& buffer() {
    thread_local std::vector<Span>* mine = nullptr;
    thread_local const Tracer* owner = nullptr;
    if (mine == nullptr || owner != this) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      mine = buffers_.back().get();
      owner = this;
    }
    return *mine;
  }
  std::vector<Span> gather() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    return all;
  }

  const bool on_;
  std::atomic<Id> next_{1};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// What one run reports: the correctness verdict, the operation counts and
/// the metrics, printed as the last line of standard output.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a failed check (and says which on stderr).
  void fail(const std::string& why) {
    if (correct || errors_ < 20) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
    }
    ++errors_;
    correct = false;
  }
  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, vu] = metrics[i];
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), vu.first, vu.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::uint64_t errors_ = 0;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// nproc, CPU model, compiler and build type, as one JSON object.
inline std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("GCC ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": \"" + json_escape(cpu) + "\", \"compiler\": \"" +
         json_escape(compiler) + "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\"}";
}

}  // namespace perfbench
