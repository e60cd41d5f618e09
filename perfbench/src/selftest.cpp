// perfbench_selftest — shows that the benchmark's checks can fail: each
// check is fed one correct input, which it must pass, and one corrupted
// input, which it must refuse. Exit status 0 when every check behaves.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>

#include "oracle.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;
  const Universe u(7, 64);
  const State base(u);
  const K present = u.key(3);
  const K absent = u.key(0) ^ 1;  // not one of the 64 keys
  const V v = u.preload_value(present);

  // Per-op results against the sequential model.
  {
    Oracle o(base);
    Result hit;
    hit.status = Status::kFound;
    hit.value = v;
    expect(o.apply(Op::search(present), hit).empty(), "search hit matches");
    Result miss;
    miss.status = Status::kNotFound;
    expect(o.apply(Op::search(absent), miss).empty(), "search miss matches");
  }
  {
    Oracle o(base);
    Result flipped;  // the key is present, the result says it is not
    flipped.status = Status::kNotFound;
    expect(!o.apply(Op::search(present), flipped).empty(),
           "flipped status is refused");
  }
  {
    Oracle o(base);
    Result wrong;
    wrong.status = Status::kFound;
    wrong.value = v + 1;
    expect(!o.apply(Op::search(present), wrong).empty(),
           "wrong value is refused");
  }
  {
    // The model follows its own mutations: upsert, then erase returns the
    // upserted value; the preload value would be wrong.
    Oracle o(base);
    Result up;
    up.status = Status::kUpdated;
    expect(o.apply(Op::upsert(present, 99), up).empty(), "upsert matches");
    Result er;
    er.status = Status::kErased;
    er.value = v;
    expect(!o.apply(Op::erase(present), er).empty(),
           "erase returning the pre-upsert value is refused");
  }

  // Final contents against the union of the models.
  {
    State s(u);
    Oracle o(s);
    Result up;
    up.status = Status::kUpdated;
    o.apply(Op::upsert(present, 99), up);
    s.absorb(o.overlay());
    std::vector<std::pair<K, V>> got;
    for (const K k : u.sorted()) {
      got.emplace_back(k, k == present ? 99 : u.preload_value(k));
    }
    expect(check_contents(s.contents(), got).empty(), "final contents match");
    auto dropped = got;
    dropped.pop_back();
    expect(!check_contents(s.contents(), dropped).empty(),
           "one dropped final entry is refused");
    auto stale = got;
    for (auto& [k, val] : stale) {
      if (k == present) val = v;
    }
    expect(!check_contents(s.contents(), stale).empty(),
           "a final entry with a stale value is refused");
  }

  std::printf("%s\n", failures == 0 ? "all checks behave" : "SELF-TEST FAILED");
  return failures == 0 ? 0 : 1;
}
