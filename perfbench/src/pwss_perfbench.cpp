// pwss_perfbench — the end-to-end benchmark of pwss (see ../README.md).
//
//   pwss_perfbench --workload ws-blocking|zipf-bulk|wire-durable
//                  --seed N --seconds S --trace 0|1
//                  --bin-dir DIR --work-dir DIR [--trace-dir DIR]
//                  [--backend NAME]   (untraced reference runs only)
//
// Every workload is a closed loop: a client sends its next operation only
// when the previous one has completed. Every result is checked against the
// benchmark's own sequential model (oracle.hpp), the final contents against
// the union of the models, and the structure with the deep validator. With
// --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// records spans around every call into the library and prints the
// per-layer metrics, measured on the same workload's inputs. The last line
// of standard output is the result object.

#include <signal.h>

#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include "common.hpp"
#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "driver/registry.hpp"
#include "net/client.hpp"
#include "oracle.hpp"
#include "sched/scheduler.hpp"
#include "server_proc.hpp"
#include "sort/pesort.hpp"
#include "store/recovery.hpp"
#include "store/snapshot.hpp"
#include "tree/jtree.hpp"
#include "util/workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Driver = pwss::driver::Driver<K, V>;
using Ticket = pwss::core::OpTicket<V, K>;

const std::uint64_t g_process_start = now_ns();

constexpr std::size_t kBatch = 8192;           // zipf-bulk and ladder batches
constexpr std::size_t kPreloadBatch = 1 << 16;  // preload through Driver::run
constexpr std::size_t kWindowKeys = 4096;      // working-set window
constexpr double kWsMiss = 0.02;               // working-set misses
constexpr std::size_t kSlotsPerConn = 16;      // requests in flight per connection
constexpr std::size_t kConns = 2;
constexpr std::size_t kLadderBatches = 16;
constexpr double kRungSeconds = 1.0;
constexpr double kWireRungSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string trace_dir;
  std::string backend;  ///< reference runs: another registry name
};

struct Mix {
  double search, upsert, erase;
};

struct Spec {
  const char* name;
  const char* backend;
  unsigned workers;
  std::size_t n;  ///< preloaded keys
  Mix mix;
};

const Spec kSpecs[] = {
    {"ws-blocking", "m2", 2, std::size_t{1} << 18, {0.90, 0.05, 0.05}},
    {"zipf-bulk", "m1", 3, std::size_t{1} << 20, {0.90, 0.10, 0.00}},
    {"wire-durable", "m1", 2, std::size_t{1} << 20, {0.80, 0.10, 0.10}},
};

std::uint64_t subseed(std::uint64_t seed, std::uint64_t tag) {
  return fmix64(seed * 0x9e3779b97f4a7c15ULL + tag);
}

/// One operation of a generated stream (an upsert's value is derived when
/// it is issued, so a cycled stream never repeats a value).
struct WOp {
  K key;
  OpType type;
};
using Stream = std::vector<WOp>;

Stream with_mix(const std::vector<K>& keys, Mix mix, std::uint64_t seed) {
  Stream out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const double u =
        static_cast<double>(fmix64(seed + i) >> 11) * 0x1.0p-53;
    const OpType t = u < mix.search                ? OpType::kSearch
                     : u < mix.search + mix.upsert ? OpType::kUpsert
                                                   : OpType::kErase;
    out.push_back({keys[i], t});
  }
  return out;
}

/// Working-set keys (window 4096, 2 % misses) over the part of the
/// universe that client `c` of `clients` owns: keys i with i % clients == c.
Stream working_set_stream(const Universe& u, std::size_t c, std::size_t clients,
                          Mix mix, std::size_t count, std::uint64_t seed) {
  const std::size_t own = u.size() / clients;
  const auto idx = pwss::util::working_set_keys(own, kWindowKeys, kWsMiss,
                                                count, subseed(seed, 10 + c));
  std::vector<K> keys;
  keys.reserve(idx.size());
  for (const auto j : idx) keys.push_back(u.key(j * clients + c));
  return with_mix(keys, mix, subseed(seed, 20 + c));
}

/// Zipf(0.99) keys over the universe with the spec's mix.
Stream zipf_stream(const Universe& u, const Spec& spec, std::uint64_t seed) {
  const auto idx = pwss::util::zipf_keys(u.size(), 0.99, std::size_t{1} << 20,
                                         subseed(seed, 30));
  std::vector<K> keys;
  keys.reserve(idx.size());
  for (const auto i : idx) keys.push_back(u.key(i));
  return with_mix(keys, spec.mix, subseed(seed, 31));
}

/// Splits a stream into `parts` key-disjoint streams (per-key order kept).
std::vector<Stream> split_by_key(const Stream& s, std::size_t parts) {
  std::vector<Stream> out(parts);
  for (const WOp& w : s) out[fmix64(w.key) % parts].push_back(w);
  return out;
}

Stream interleave(const std::vector<Stream>& parts) {
  Stream out;
  std::size_t longest = 0;
  for (const auto& p : parts) longest = std::max(longest, p.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (const auto& p : parts) {
      if (i < p.size()) out.push_back(p[i]);
    }
  }
  return out;
}

/// A sequential client: its operations (cycled) and its oracle. `ops`
/// belongs to the caller and must outlive the session.
class Session {
 public:
  Session(const State& base, const Stream& ops, std::uint64_t salt)
      : ops_(&ops), salt_(salt), oracle_(base) {}

  Op next() {
    const WOp& w = (*ops_)[issued_ % ops_->size()];
    Op op = w.type == OpType::kSearch   ? Op::search(w.key)
            : w.type == OpType::kUpsert ? Op::upsert(w.key, fmix64(salt_ + issued_))
                                        : Op::erase(w.key);
    ++issued_;
    return op;
  }
  /// Checks and applies one completed op; "" when it matches the model.
  std::string complete(const Op& op, const Result& r) {
    return oracle_.apply(op, r);
  }
  const std::map<K, std::optional<V>>& overlay() const {
    return oracle_.overlay();
  }

 private:
  const Stream* ops_;
  std::uint64_t salt_;
  std::uint64_t issued_ = 0;
  Oracle oracle_;
};

std::vector<std::unique_ptr<Session>> make_sessions(
    const State& base, const std::vector<Stream>& streams, std::uint64_t seed) {
  std::vector<std::unique_ptr<Session>> out;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    out.push_back(std::make_unique<Session>(base, streams[i],
                                            subseed(seed, 1000 + i)));
  }
  return out;
}

void absorb_all(State& state,
                const std::vector<std::unique_ptr<Session>>& sessions) {
  for (const auto& s : sessions) state.absorb(s->overlay());
}

/// Thread-safe collector of check failures from client threads.
class Failures {
 public:
  void add(std::string why) {
    std::lock_guard<std::mutex> lk(mu_);
    if (list_.size() < 20) list_.push_back(std::move(why));
    ++count_;
  }
  void report_to(Report& rep, const char* where) const {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& w : list_) rep.fail(std::string(where) + ": " + w);
    if (count_ > list_.size()) {
      rep.fail(std::string(where) + ": " + std::to_string(count_) +
               " mismatches in all");
    }
  }

 private:
  mutable std::mutex mu_;  // guards list_ and count_
  std::vector<std::string> list_;
  std::uint64_t count_ = 0;
};

void check_validate(Report& rep, const char* where, const std::string& report) {
  if (!report.empty()) rep.fail(std::string(where) + ": validate: " + report);
}

void check_contents_of(Report& rep, const char* where, const State& state,
                       const std::vector<std::pair<K, V>>& got) {
  const std::string why = check_contents(state.contents(), got);
  if (!why.empty()) rep.fail(std::string(where) + ": " + why);
}

pwss::driver::Options driver_options(const Spec& spec) {
  pwss::driver::Options o;
  o.workers = spec.workers;
  return o;
}

/// Inserts the universe through Driver::run (batches of 2^16 in generation
/// order), checking every insert reports kInserted.
template <typename RunBatch>
void preload(const Universe& u, Report& rep, RunBatch&& run_batch) {
  std::vector<Op> ops;
  std::vector<Result> out;
  for (std::size_t i = 0; i < u.size(); i += kPreloadBatch) {
    ops.clear();
    const std::size_t end = std::min(u.size(), i + kPreloadBatch);
    for (std::size_t j = i; j < end; ++j) {
      ops.push_back(Op::insert(u.key(j), u.preload_value(u.key(j))));
    }
    run_batch(ops, out);
    for (const auto& r : out) {
      if (r.status != Status::kInserted) {
        rep.fail("preload: insert did not report kInserted");
        return;
      }
    }
  }
}

std::unique_ptr<Driver> loaded_driver(const Spec& spec, const Universe& u,
                                      Report& rep) {
  auto d = pwss::driver::make_driver<K, V>(spec.backend, driver_options(spec));
  preload(u, rep, [&](const std::vector<Op>& ops, std::vector<Result>& out) {
    d->run(ops, out);
  });
  d->quiesce();
  return d;
}

void write_snapshot(const std::string& dir, const Universe& u) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::pair<K, V>> entries;
  entries.reserve(u.size());
  for (const K k : u.sorted()) entries.emplace_back(k, u.preload_value(k));
  pwss::store::SnapshotWriter<K, V>::write(pwss::store::snapshot_path(dir), 0,
                                           entries);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// Runs batches drawn from `session` through `exec` until `max_batches`
/// or `seconds` of execution; checks every result. Returns ops executed
/// and the time spent inside `exec`.
template <typename Exec>
std::pair<std::uint64_t, std::uint64_t> batch_loop(
    Session& session, std::size_t max_batches, double seconds, Tracer& tr,
    Tracer::Id parent, const char* span, Report& rep, const char* where,
    Exec&& exec, Windows* windows = nullptr) {
  std::vector<Op> ops(kBatch);
  std::vector<Result> out;
  std::uint64_t spent = 0, done = 0;
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t b = 0; b < max_batches && spent < budget; ++b) {
    for (auto& op : ops) op = session.next();
    const std::uint64_t t0 = now_ns();
    exec(ops, out);
    const std::uint64_t t1 = now_ns();
    tr.record(parent, span, t0, t1);
    spent += t1 - t0;
    if (windows) windows->add(t0, t1 - t0, ops.size());
    done += ops.size();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (out[i].is_error()) {
        ++rep.failed;
        continue;
      }
      const std::string why = session.complete(ops[i], out[i]);
      if (!why.empty()) rep.fail(std::string(where) + ": " + why);
    }
  }
  return {done, spent};
}

// ---------------------------------------------------------------- wire ----

/// One request in flight on a connection: a closed-loop client of its
/// own key-disjoint stream. The completion hook checks the result and
/// sends the slot's next request from the connection's reader thread.
struct WireSlot : Ticket {
  struct Shared {
    std::uint64_t deadline = 0;
    Tracer* tracer = nullptr;
    Tracer::Id parent = 0;
    Failures failures;
    std::atomic<std::uint64_t> failed{0};
    std::mutex mu;  // guards active and last_done
    std::condition_variable cv;
    std::size_t active = 0;
    std::uint64_t last_done = 0;
  };
  Shared* shared = nullptr;
  pwss::net::Client* client = nullptr;
  Session* session = nullptr;
  Windows* win = nullptr;  ///< per connection: only its reader thread adds
  std::uint64_t* ops = nullptr;  ///< per connection, as win
  std::uint64_t* mutations = nullptr;
  Op op{};
  std::uint64_t sent = 0;

  void send() {
    reset();
    op = session->next();
    sent = now_ns();
    client->submit(op, static_cast<Ticket*>(this));
  }

  static void done(Ticket* t) {
    auto* s = static_cast<WireSlot*>(t);
    Shared& sh = *s->shared;
    const std::uint64_t now = now_ns();
    const Result r = s->result;
    bool more = false;
    if (r.is_error()) {
      sh.failed.fetch_add(1, std::memory_order_relaxed);
    } else {
      s->win->add(s->sent, now - s->sent);
      ++*s->ops;
      if (s->op.type != OpType::kSearch) ++*s->mutations;
      sh.tracer->record(sh.parent, "wire.op", s->sent, now);
      std::string why = s->session->complete(s->op, r);
      if (!why.empty()) sh.failures.add(std::move(why));
      more = now < sh.deadline;
    }
    if (more) {
      s->send();
      return;
    }
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.last_done = std::max(sh.last_done, now);
    if (--sh.active == 0) sh.cv.notify_all();
  }
};

struct WireResult {
  double setup_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t mutations = 0;
  std::uint64_t wall_ns = 0;
  Windows::Summary summary;
  double server_rss_mib = 0;
  std::uint64_t server_cpu_ns = 0;
  std::uint64_t server_sys_ns = 0;
  std::uint64_t server_ctx = 0;
  std::uint64_t client_cpu_ns = 0;
  std::uint64_t frames = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  double recover_s = 0;
  std::size_t live = 0;
};

/// Boots pwss_serve with durability=async on a snapshot of `u`, drives
/// 2 connections x 16 requests in flight over `slots` (32 key-disjoint
/// streams) for `seconds`, drains the server, and checks every result,
/// the wire counters, the server's validate, and the contents recovered
/// in-process from its directory.
WireResult run_wire(const Args& args, const Spec& spec, const Universe& u,
                    const std::vector<Stream>& slots, double seconds,
                    const std::string& dir, Tracer& tr, Tracer::Id parent,
                    Report& rep) {
  WireResult w;
  write_snapshot(dir, u);
  State state(u);
  auto sessions = make_sessions(state, slots, subseed(args.seed, 7));

  const std::uint64_t t_spawn = now_ns();
  ServerProcess server(
      args.bin_dir + "/pwss_serve",
      {std::string("--backend=") + spec.backend,
       "--workers=" + std::to_string(spec.workers), "--durability=async",
       "--durability-dir=" + dir,
       "--net-window=" + std::to_string(kSlotsPerConn), "--serve=127.0.0.1:0",
       "--stats", "--validate"});
  const std::string line = server.read_line(120000);
  w.setup_s = static_cast<double>(now_ns() - t_spawn) / 1e9;
  tr.record(parent, "wire.server_boot", t_spawn, now_ns());
  const auto at = line.find("tcp=");
  if (line.rfind("serving", 0) != 0 || at == std::string::npos) {
    throw std::runtime_error("unexpected server banner: " + line);
  }
  const std::string addr = line.substr(at + 4, line.find(' ', at) - at - 4);

  WireSlot::Shared shared;
  shared.tracer = &tr;
  // Client is neither copyable nor movable: each lives in its own Conn.
  struct Conn {
    explicit Conn(const std::string& addr)
        : client(pwss::net::Client::dial_tcp(addr)) {}
    pwss::net::Client client;
  };
  std::vector<std::unique_ptr<Conn>> clients;
  std::vector<std::unique_ptr<Windows>> wins;
  std::vector<std::uint64_t> conn_ops(kConns, 0), conn_mut(kConns, 0);
  for (std::size_t c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<Conn>(addr));
    wins.push_back(std::make_unique<Windows>(seconds, std::size_t{1} << 13,
                                             subseed(args.seed, 300 + c)));
  }
  std::vector<WireSlot> wslots(sessions.size());
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  {
    Tracer::Scope timed(tr, parent, "wire.timed");
    shared.parent = timed.id;
    const std::uint64_t start = now_ns();
    for (auto& win : wins) win->begin(start);
    shared.deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    shared.active = wslots.size();
    for (std::size_t i = 0; i < wslots.size(); ++i) {
      const std::size_t c = i * kConns / wslots.size();
      WireSlot& s = wslots[i];
      s.shared = &shared;
      s.client = &clients[c]->client;
      s.session = sessions[i].get();
      s.win = wins[c].get();
      s.ops = &conn_ops[c];
      s.mutations = &conn_mut[c];
      s.on_complete = &WireSlot::done;
    }
    for (auto& s : wslots) s.send();
    std::unique_lock<std::mutex> lk(shared.mu);
    shared.cv.wait(lk, [&] { return shared.active == 0; });
    w.wall_ns = shared.last_done - start;
  }
  getrusage(RUSAGE_SELF, &ru1);
  w.client_cpu_ns = cpu_ns(ru1) - cpu_ns(ru0);
  for (std::size_t c = 0; c < kConns; ++c) {
    w.ops += conn_ops[c];
    w.mutations += conn_mut[c];
  }
  w.summary = Windows::summarize({wins[0].get(), wins[1].get()}, false);
  rep.attempted += w.ops + shared.failed.load();
  rep.failed += shared.failed.load();
  shared.failures.report_to(rep, "wire");
  clients.clear();

  const std::uint64_t t_stop = now_ns();
  const ServerProcess::Exit ex = server.stop();
  tr.record(parent, "wire.drain", t_stop, now_ns());
  Tracer::Scope check(tr, parent, "wire.check");
  std::fputs(ex.stderr_text.c_str(), stderr);
  if (!WIFEXITED(ex.status) || WEXITSTATUS(ex.status) != 0) {
    rep.fail("pwss_serve did not exit cleanly (status " +
             std::to_string(ex.status) + ")");
  }
  if (ex.stderr_text.find("]: ok") == std::string::npos) {
    rep.fail("pwss_serve --validate did not report ok");
  }
  if (ex.stderr_text.find(" frames_in=") == std::string::npos) {
    rep.fail("pwss_serve --stats printed no net counters");
  }
  if (stat_field(ex.stderr_text, "protocol_errors") != 0 ||
      stat_field(ex.stderr_text, "shed_on_wire") != 0) {
    rep.fail("wire counters: protocol_errors or shed_on_wire is not 0");
  }
  w.frames = stat_field(ex.stderr_text, "frames_in") +
             stat_field(ex.stderr_text, "frames_out");
  w.server_rss_mib = static_cast<double>(ex.usage.ru_maxrss) / 1024.0;
  w.server_cpu_ns = cpu_ns(ex.usage);
  w.server_sys_ns =
      static_cast<std::uint64_t>(ex.usage.ru_stime.tv_sec) * 1000000000ULL +
      static_cast<std::uint64_t>(ex.usage.ru_stime.tv_usec) * 1000ULL;
  w.server_ctx = static_cast<std::uint64_t>(ex.usage.ru_nvcsw + ex.usage.ru_nivcsw);
  w.wal_bytes = file_bytes(pwss::store::wal_path(dir));
  w.snapshot_bytes = file_bytes(pwss::store::snapshot_path(dir));

  // The server's directory, recovered in-process: recovery + deep validate.
  absorb_all(state, sessions);
  pwss::driver::Options o = driver_options(spec);
  o.durability = pwss::store::DurabilityMode::kAsync;
  o.durability_dir = dir;
  const std::uint64_t t_rec = now_ns();
  auto d = pwss::driver::make_driver<K, V>(spec.backend, o);
  w.recover_s = static_cast<double>(now_ns() - t_rec) / 1e9;
  tr.record(check.id, "wire.recover", t_rec, now_ns());
  const auto contents = d->export_sorted();
  w.live = contents.size();
  check_contents_of(rep, "wire recovered contents", state, contents);
  check_validate(rep, "wire recovered map", d->validate());
  return w;
}

/// Every slot of every connection: connection c's stream split by key.
std::vector<Stream> wire_slots(std::vector<Stream> per_conn) {
  std::vector<Stream> slots;
  for (auto& s : per_conn) {
    for (auto& part : split_by_key(s, kSlotsPerConn)) slots.push_back(std::move(part));
  }
  return slots;
}

void wire_metrics(Report& rep, const WireResult& w) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(w.ops, 1));
  rep.metric("ladder.wire_ns_per_op", static_cast<double>(w.wall_ns) / ops, "ns");
  rep.metric("net.frames_per_op", static_cast<double>(w.frames) / ops, "1/op");
  rep.metric("net.server_cpu_us_per_op",
             static_cast<double>(w.server_cpu_ns) / 1e3 / ops, "us");
  rep.metric("net.server_sys_fraction",
             static_cast<double>(w.server_sys_ns) /
                 static_cast<double>(std::max<std::uint64_t>(w.server_cpu_ns, 1)),
             "ratio");
  rep.metric("net.server_ctx_switches_per_op",
             static_cast<double>(w.server_ctx) / ops, "1/op");
  rep.metric("net.client_cpu_us_per_op",
             static_cast<double>(w.client_cpu_ns) / 1e3 / ops, "us");
  rep.metric("store.wal_bytes_per_mutation",
             static_cast<double>(w.wal_bytes) /
                 static_cast<double>(std::max<std::uint64_t>(w.mutations, 1)),
             "B");
  rep.metric("store.bytes_per_user_byte",
             static_cast<double>(w.snapshot_bytes + w.wal_bytes) /
                 (16.0 * static_cast<double>(std::max<std::size_t>(w.live, 1))),
             "ratio");
  rep.metric("store.recover_s", w.recover_s, "s");
}

// -------------------------------------------------------------- ladder ----

/// The closed loop of the in-process submit rung: one caller thread keeps
/// every slot's request in flight through Driver::submit(op, ticket),
/// polling the tickets' ready flags. Returns wall ns per op and the
/// median duration of the submit call itself.
std::pair<double, double> submit_rung(Driver& d, const State& base,
                                      const std::vector<Stream>& slots,
                                      std::uint64_t seed, Tracer& tr,
                                      Tracer::Id parent, Report& rep) {
  auto sessions = make_sessions(base, slots, seed);
  const std::size_t n = sessions.size();
  std::vector<Ticket> tickets(n);
  std::vector<Op> ops(n);
  std::vector<std::uint64_t> sent(n), calls;
  std::vector<bool> live(n, true);
  calls.reserve(std::size_t{1} << 20);
  auto send = [&](std::size_t i) {
    tickets[i].reset();
    ops[i] = sessions[i]->next();
    sent[i] = now_ns();
    d.submit(ops[i], &tickets[i]);
    const std::uint64_t t = now_ns();
    if (calls.size() < calls.capacity()) calls.push_back(t - sent[i]);
  };
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(kRungSeconds * 1e9);
  std::uint64_t done = 0, end = start;
  std::size_t in_flight = n;
  for (std::size_t i = 0; i < n; ++i) send(i);
  while (in_flight > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!live[i] || !tickets[i].ready.load(std::memory_order_acquire)) continue;
      end = now_ns();
      tr.record(parent, "ladder.submit.op", sent[i], end);
      const Result r = tickets[i].result;
      ++done;
      if (r.is_error()) ++rep.failed;
      const std::string why = sessions[i]->complete(ops[i], r);
      if (!why.empty()) rep.fail("submit rung: " + why);
      if (end < deadline) {
        send(i);
      } else {
        live[i] = false;
        --in_flight;
      }
    }
  }
  return {static_cast<double>(end - start) / static_cast<double>(done),
          quantile(calls, 0.5)};
}

void component_rungs(const Spec& spec, const Universe& u, const Stream& ladder,
                     Tracer& tr, Tracer::Id parent, Report& rep) {
  pwss::sched::Scheduler sched(spec.workers);
  {
    // Fork/join issued from a non-worker thread: one empty chunk per worker.
    Tracer::Scope span(tr, parent, "ladder.fork_join");
    std::vector<std::uint64_t> us;
    std::atomic<std::size_t> touched{0};
    auto body = [&](std::size_t a, std::size_t b) {
      touched.fetch_add(b - a, std::memory_order_relaxed);
    };
    for (int i = 0; i < 200; ++i) sched.parallel_for(0, spec.workers, 1, body);
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t t0 = now_ns();
      sched.parallel_for(0, spec.workers, 1, body);
      us.push_back(now_ns() - t0);
    }
    if (touched.load() != 4200u * spec.workers) rep.fail("parallel_for skipped chunks");
    rep.metric("sched.fork_join_us", quantile(us, 0.5) / 1e3, "us");
  }
  {
    Tracer::Scope span(tr, parent, "ladder.pesort");
    pwss::sort::PESortScratch<K, K> scratch;
    std::vector<K> keys;
    std::uint64_t ns = 0, items = 0;
    for (std::size_t b = 0; b < kLadderBatches; ++b) {
      keys.clear();
      for (std::size_t i = 0; i < kBatch; ++i) {
        keys.push_back(ladder[(b * kBatch + i) % ladder.size()].key);
      }
      const std::uint64_t t0 = now_ns();
      pwss::sort::pesort(keys, [](const K& k) { return k; }, &sched, {}, &scratch);
      const std::uint64_t t1 = now_ns();
      tr.record(span.id, "ladder.pesort.batch", t0, t1);
      ns += t1 - t0;
      items += keys.size();
      if (!std::is_sorted(keys.begin(), keys.end())) rep.fail("pesort: unsorted output");
    }
    rep.metric("sort.pesort_ns_per_item",
               static_cast<double>(ns) / static_cast<double>(items), "ns");
  }
  {
    // Erase+insert pairs on a tree holding the preloaded keys (every stream
    // key is one of them); each pair leaves the tree as it found it.
    Tracer::Scope span(tr, parent, "ladder.jtree");
    pwss::tree::JTree<K, V> tree;
    for (const K k : u.keys()) tree.insert(k, u.preload_value(k));
    const std::size_t pairs = std::min<std::size_t>(ladder.size(), 1 << 17);
    std::size_t missing = 0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < pairs; ++i) {
      const K k = ladder[i].key;
      const std::optional<V> v = tree.erase(k);
      missing += !v;
      tree.insert(k, v.value_or(0));
    }
    const std::uint64_t t1 = now_ns();
    tr.record(span.id, "ladder.jtree.pairs", t0, t1);
    if (missing != 0 || tree.size() != u.size()) {
      rep.fail("jtree: a preloaded key was missing");
    }
    rep.metric("tree.jtree_op_ns",
               static_cast<double>(t1 - t0) / static_cast<double>(pairs), "ns");
  }
}

/// M1Map::execute_batch on a map the benchmark builds itself: the probe
/// depth counts and the segment count. Returns ns per op.
double m1_backend_rung(const Spec& spec, const Universe& u, const Stream& ladder,
                       std::uint64_t seed, Tracer& tr, Tracer::Id parent,
                       Report& rep) {
  pwss::sched::Scheduler sched(spec.workers);
  pwss::core::M1Map<K, V> map(&sched);
  preload(u, rep, [&](const std::vector<Op>& ops, std::vector<Result>& out) {
    map.execute_batch(std::span<const Op>(ops), out);
  });
  rep.metric("core.segments", static_cast<double>(map.segment_count()), "count");
  map.reset_probe_depth_counts();
  State base(u);
  Session s(base, ladder, seed);
  const auto [ops, ns] = batch_loop(
      s, kLadderBatches, kRungSeconds * 4, tr, parent, "ladder.backend.batch",
      rep, "backend rung",
      [&](const std::vector<Op>& b, std::vector<Result>& out) {
        map.execute_batch(std::span<const Op>(b), out);
      });
  const auto& pc = map.probe_depth_counts();
  const double n = static_cast<double>(ops);
  rep.metric("core.probe_d0_per_op", static_cast<double>(pc.hits[0]) / n, "1/op");
  rep.metric("core.probe_d1_per_op", static_cast<double>(pc.hits[1]) / n, "1/op");
  rep.metric("core.probe_d2_per_op", static_cast<double>(pc.hits[2]) / n, "1/op");
  rep.metric("core.probe_d3plus_per_op", static_cast<double>(pc.hits[3]) / n, "1/op");
  rep.metric("core.probe_miss_per_op", static_cast<double>(pc.misses) / n, "1/op");
  check_validate(rep, "backend rung", map.validate());
  return static_cast<double>(ns) / n;
}

/// M2Map::execute_batch on a map the benchmark builds itself.
double m2_backend_rung(const Spec& spec, const Universe& u, const Stream& ladder,
                       std::uint64_t seed, Tracer& tr, Tracer::Id parent,
                       Report& rep) {
  pwss::sched::Scheduler sched(spec.workers);
  pwss::core::M2Map<K, V> map(sched);
  preload(u, rep, [&](const std::vector<Op>& ops, std::vector<Result>& out) {
    map.execute_batch(std::span<const Op>(ops), out);
  });
  State base(u);
  Session s(base, ladder, seed);
  const auto [ops, ns] = batch_loop(
      s, kLadderBatches, kRungSeconds * 4, tr, parent, "ladder.backend.batch",
      rep, "backend rung",
      [&](const std::vector<Op>& b, std::vector<Result>& out) {
        map.execute_batch(std::span<const Op>(b), out);
      });
  map.quiesce();
  check_validate(rep, "backend rung", map.validate());
  return static_cast<double>(ns) / static_cast<double>(ops);
}

/// The per-layer ladder on the workload's own inputs: `d` is a driver of
/// the workload's backend and durability mode holding `state`.
void ladder_rungs(const Args& args, Driver& d, State& state, const Stream& ladder, Tracer& tr,
                  Tracer::Id parent, Report& rep) {
  {
    Tracer::Scope span(tr, parent, "ladder.run");
    Session s(state, ladder, subseed(args.seed, 401));
    const auto [ops, ns] = batch_loop(
        s, kLadderBatches, kRungSeconds * 4, tr, span.id, "ladder.run.batch",
        rep, "run rung",
        [&](const std::vector<Op>& b, std::vector<Result>& out) { d.run(b, out); });
    state.absorb(s.overlay());
    rep.metric("ladder.run_ns_per_op",
               static_cast<double>(ns) / static_cast<double>(ops), "ns");
  }
  {
    Tracer::Scope span(tr, parent, "ladder.step");
    Session s(state, ladder, subseed(args.seed, 402));
    std::uint64_t ns = 0, ops = 0;
    const auto budget = static_cast<std::uint64_t>(kRungSeconds * 1e9);
    while (ns < budget && ops < ladder.size()) {
      const Op op = s.next();
      const std::uint64_t t0 = now_ns();
      const Result r = d.step(op);
      const std::uint64_t t1 = now_ns();
      tr.record(span.id, "ladder.step.op", t0, t1);
      ns += t1 - t0;
      ++ops;
      if (r.is_error()) ++rep.failed;
      const std::string why = s.complete(op, r);
      if (!why.empty()) rep.fail("step rung: " + why);
    }
    state.absorb(s.overlay());
    rep.metric("ladder.step_ns_per_op",
               static_cast<double>(ns) / static_cast<double>(ops), "ns");
  }
  {
    Tracer::Scope span(tr, parent, "ladder.submit");
    const auto [per_op, call] = submit_rung(
        d, state, split_by_key(ladder, kConns * kSlotsPerConn),
        subseed(args.seed, 403), tr, span.id, rep);
    rep.metric("ladder.submit_ns_per_op", per_op, "ns");
    rep.metric("driver.submit_call_ns", call, "ns");
  }
  d.quiesce();
  check_validate(rep, "ladder driver", d.validate());
}

void backend_and_components(const Args& args, const Spec& spec,
                            const Universe& u, const Stream& ladder, Tracer& tr,
                            Tracer::Id parent, Report& rep) {
  component_rungs(spec, u, ladder, tr, parent, rep);
  Tracer::Scope span(tr, parent, "ladder.backend");
  const std::uint64_t seed = subseed(args.seed, 404);
  if (std::string(spec.backend) == "m1") {
    rep.metric("ladder.backend_ns_per_op",
               m1_backend_rung(spec, u, ladder, seed, tr, span.id, rep), "ns");
  } else {
    rep.metric("ladder.backend_ns_per_op",
               m2_backend_rung(spec, u, ladder, seed, tr, span.id, rep), "ns");
    // M2 keeps no probe-depth accounting: the core.* counts come from an
    // M1Map on the same batches.
    Tracer::Scope probe(tr, span.id, "ladder.m1_probe_counts");
    m1_backend_rung(spec, u, ladder, seed, tr, probe.id, rep);
  }
}

/// The traced run's ladder phase. Its operations are not the workload's:
/// they leave attempted/failed alone, and any that ends in an error
/// status fails the run.
template <typename Body>
void ladder_phase(Tracer& tr, Report& rep, Body&& body) {
  Tracer::Scope span(tr, 0, "phase.ladder");
  const std::uint64_t attempted = rep.attempted, failed = rep.failed;
  body(span.id);
  if (rep.failed != failed) {
    rep.fail("ladder: " + std::to_string(rep.failed - failed) +
             " ops ended in an error status");
  }
  rep.attempted = attempted;
  rep.failed = failed;
}

/// The traced run's ladder for an in-process workload: the driver rungs
/// on a freshly preloaded driver, so that they start from the state the
/// backend rung starts from, then the backend, component and wire rungs.
void in_process_ladder(const Args& args, const Spec& spec, const Universe& u,
                       const Stream& ladder, Tracer& tr, Tracer::Id parent,
                       Report& rep) {
  {
    auto d = loaded_driver(spec, u, rep);
    State state(u);
    ladder_rungs(args, *d, state, ladder, tr, parent, rep);
  }
  backend_and_components(args, spec, u, ladder, tr, parent, rep);
  Tracer::Scope span(tr, parent, "ladder.wire");
  wire_metrics(rep, run_wire(args, spec, u,
                             split_by_key(ladder, kConns * kSlotsPerConn),
                             kWireRungSeconds, args.work_dir + "/ladder-wire",
                             tr, span.id, rep));
}

// ------------------------------------------------------------ workloads ----

void end_to_end(Report& rep, double setup_s, const Windows::Summary& win,
                std::uint64_t ops, std::uint64_t wall_ns, double rss_mib,
                bool traced) {
  std::fprintf(stderr,
               "perfbench: setup %.3f s, %llu ops in %.3f s; interquartile "
               "means over %zu windows: %.0f ops/s, p50 %.1f us, p99 %.1f us; peak RSS "
               "%.1f MiB\n",
               setup_s, static_cast<unsigned long long>(ops),
               static_cast<double>(wall_ns) / 1e9, win.windows,
               win.throughput_ops_s, win.p50_ns / 1e3, win.p99_ns / 1e3,
               rss_mib);
  if (traced) {
    rep.metric("trace.throughput_ops_s", win.throughput_ops_s, "ops/s");
    return;
  }
  rep.metric("setup_s", setup_s, "s");
  rep.metric("throughput_ops_s", win.throughput_ops_s, "ops/s");
  rep.metric("latency_p50_us", win.p50_ns / 1e3, "us");
  rep.metric("latency_p99_us", win.p99_ns / 1e3, "us");
  rep.metric("peak_rss_mib", rss_mib, "MiB");
}

void ws_blocking(const Args& args, const Spec& spec, Tracer& tr, Report& rep) {
  const Tracer::Id root = 0;
  const std::uint64_t t_setup = now_ns();
  const Universe u(args.seed, spec.n);
  auto d = loaded_driver(spec, u, rep);
  const double setup_s = static_cast<double>(now_ns() - g_process_start) / 1e9;
  tr.record(root, "phase.setup", t_setup, now_ns());

  std::vector<Stream> streams;
  for (std::size_t c = 0; c < 2; ++c) {
    streams.push_back(
        working_set_stream(u, c, 2, spec.mix, std::size_t{1} << 19, args.seed));
  }
  // The ladder's stream exists only in traced runs, so that the
  // benchmark's own memory in the measured process stays small.
  const Stream ladder = tr.on() ? interleave(streams) : Stream();
  State state(u);
  auto sessions = make_sessions(state, streams, subseed(args.seed, 5));
  std::vector<std::unique_ptr<Windows>> wins;
  for (std::size_t c = 0; c < 2; ++c) {
    wins.push_back(std::make_unique<Windows>(args.seconds, std::size_t{1} << 13,
                                             subseed(args.seed, 200 + c)));
  }
  Failures failures;
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::uint64_t> ops(2, 0), ends(2, 0);
  std::uint64_t start = 0;
  {
    Tracer::Scope timed(tr, root, "phase.timed");
    start = now_ns();
    for (auto& win : wins) win->begin(start);
    const std::uint64_t deadline = start + static_cast<std::uint64_t>(args.seconds * 1e9);
    auto client = [&](std::size_t c) {
      Session& s = *sessions[c];
      std::uint64_t t = now_ns();
      while (t < deadline) {
        const Op op = s.next();
        const std::uint64_t t0 = now_ns();
        const Result r = d->run_blocking(op);
        t = now_ns();
        tr.record(timed.id, "ws.op", t0, t);
        if (r.is_error()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        wins[c]->add(t0, t - t0);
        ++ops[c];
        std::string why = s.complete(op, r);
        if (!why.empty()) failures.add(std::move(why));
      }
      ends[c] = t;
    };
    std::thread c1(client, 1);
    client(0);
    c1.join();
  }
  const double rss = self_peak_rss_mib();
  {
    Tracer::Scope check(tr, root, "phase.check");
    rep.attempted = ops[0] + ops[1] + failed.load();
    rep.failed = failed.load();
    failures.report_to(rep, "ws-blocking");
    absorb_all(state, sessions);
    d->quiesce();
    check_contents_of(rep, "ws-blocking contents", state, d->export_sorted());
    check_validate(rep, "ws-blocking", d->validate());
  }
  end_to_end(rep, setup_s,
             Windows::summarize({wins[0].get(), wins[1].get()}, false),
             ops[0] + ops[1], std::max(ends[0], ends[1]) - start, rss, tr.on());
  if (!tr.on()) return;
  d.reset();
  ladder_phase(tr, rep, [&](Tracer::Id ladder_id) {
    in_process_ladder(args, spec, u, ladder, tr, ladder_id, rep);
  });
}

void zipf_bulk(const Args& args, const Spec& spec, Tracer& tr, Report& rep) {
  const Tracer::Id root = 0;
  const std::uint64_t t_setup = now_ns();
  const Universe u(args.seed, spec.n);
  auto d = loaded_driver(spec, u, rep);
  const double setup_s = static_cast<double>(now_ns() - g_process_start) / 1e9;
  tr.record(root, "phase.setup", t_setup, now_ns());

  const Stream ladder = zipf_stream(u, spec, args.seed);
  State state(u);
  Session s(state, ladder, subseed(args.seed, 5));
  Windows win(args.seconds, 256, subseed(args.seed, 200));
  std::uint64_t ops = 0, ns = 0;
  {
    Tracer::Scope timed(tr, root, "phase.timed");
    win.begin(now_ns());
    std::tie(ops, ns) = batch_loop(
        s, static_cast<std::size_t>(-1), args.seconds, tr, timed.id,
        "zipf.run_batch", rep, "zipf-bulk",
        [&](const std::vector<Op>& b, std::vector<Result>& out) { d->run(b, out); },
        &win);
  }
  const double rss = self_peak_rss_mib();
  {
    Tracer::Scope check(tr, root, "phase.check");
    rep.attempted = ops;
    state.absorb(s.overlay());
    d->quiesce();
    check_contents_of(rep, "zipf-bulk contents", state, d->export_sorted());
    check_validate(rep, "zipf-bulk", d->validate());
  }
  // Each op's latency is its batch's: call to Driver::run until it returns.
  end_to_end(rep, setup_s, Windows::summarize({&win}, true), ops, ns, rss,
             tr.on());
  if (!tr.on()) return;
  d.reset();
  ladder_phase(tr, rep, [&](Tracer::Id ladder_id) {
    in_process_ladder(args, spec, u, ladder, tr, ladder_id, rep);
  });
}

void wire_durable(const Args& args, const Spec& spec, Tracer& tr, Report& rep) {
  const Tracer::Id root = 0;
  const Universe u(args.seed, spec.n);
  std::vector<Stream> per_conn;
  for (std::size_t c = 0; c < kConns; ++c) {
    per_conn.push_back(working_set_stream(u, c, kConns, spec.mix,
                                          std::size_t{1} << 19, args.seed));
  }
  const Stream ladder = interleave(per_conn);
  WireResult w;
  {
    Tracer::Scope timed(tr, root, "phase.wire");
    w = run_wire(args, spec, u, wire_slots(per_conn), args.seconds,
                 args.work_dir + "/wire", tr, timed.id, rep);
  }
  end_to_end(rep, w.setup_s, w.summary, w.ops, w.wall_ns, w.server_rss_mib,
             tr.on());
  if (!tr.on()) return;
  wire_metrics(rep, w);
  ladder_phase(tr, rep, [&](Tracer::Id ladder_id) {
    {
      // The in-process rungs run the wire workload's durability mode on a
      // driver recovered from the same initial snapshot.
      const std::string dir = args.work_dir + "/ladder";
      write_snapshot(dir, u);
      pwss::driver::Options o = driver_options(spec);
      o.durability = pwss::store::DurabilityMode::kAsync;
      o.durability_dir = dir;
      auto d = pwss::driver::make_driver<K, V>(spec.backend, o);
      State state(u);
      ladder_rungs(args, *d, state, ladder, tr, ladder_id, rep);
    }
    backend_and_components(args, spec, u, ladder, tr, ladder_id, rep);
  });
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ws-blocking|zipf-bulk|wire-durable "
               "--seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR "
               "[--trace-dir DIR] [--backend NAME (untraced reference runs)]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = val;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = val == "0" || val == "1";
      args.trace = val == "1";
    } else if (flag == "--bin-dir") {
      args.bin_dir = val;
    } else if (flag == "--work-dir") {
      args.work_dir = val;
    } else if (flag == "--trace-dir") {
      args.trace_dir = val;
    } else if (flag == "--backend") {
      args.backend = val;
    } else {
      return usage(argv[0]);
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (argc % 2 == 0 || spec == nullptr || !have_seed || !have_seconds ||
      !have_trace || args.bin_dir.empty() || args.work_dir.empty() ||
      (args.trace && args.trace_dir.empty()) ||
      (args.trace && !args.backend.empty())) {
    return usage(argv[0]);
  }
  Spec chosen = *spec;
  if (!args.backend.empty()) {
    if (!pwss::driver::BackendRegistry<K, V>::instance().contains(args.backend)) {
      std::fprintf(stderr, "perfbench: unknown backend '%s'\n",
                   args.backend.c_str());
      return 2;
    }
    chosen.backend = args.backend.c_str();
  }
  signal(SIGPIPE, SIG_IGN);
  std::printf("host %s\n", host_fingerprint().c_str());
  std::fflush(stdout);

  Tracer tracer(args.trace);
  Report rep;
  try {
    fs::create_directories(args.work_dir);
    if (args.workload == "ws-blocking") {
      ws_blocking(args, chosen, tracer, rep);
    } else if (args.workload == "zipf-bulk") {
      zipf_bulk(args, chosen, tracer, rep);
    } else {
      wire_durable(args, chosen, tracer, rep);
    }
    if (tracer.on()) {
      // One trace per workload: the latest traced run's.
      const std::string stem = args.trace_dir + "/" + args.workload;
      fs::create_directories(args.trace_dir);
      tracer.write(stem);
      std::fprintf(stderr, "perfbench: spans written to %s.spans.tsv\n",
                   stem.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  rep.print();
  return rep.correct ? 0 : 1;
}
