// Cluster-wide signature-verification memo.
//
// A flooded frame reaches every replica, and each receiver checks the
// same (author, preimage, signature) triple. A verification result is a
// pure function of that triple, so the simulator runs the check once per
// cluster and answers every later receiver from this memo. With real
// ECDSA keys this cuts a SyncHS n=7 run from 44.8 s to about 10 s of
// host time (README "Performance").
//
// The memo changes host time only. Replicas and clients charge
// Category::kVerify and count the profiler op before they consult it,
// so energy, bytes and every exported counter except the memo's own
// hit/miss counts are the same as with every check run in place.
//
// Single-threaded: one instance per harness::Cluster, used only from
// that cluster's sim thread.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/common/bytes.hpp"

namespace eesmr::crypto {

/// Canonical memo key of one (author, preimage, signature) verification.
/// Raw concatenation, not a hash: for simulated keys a SHA-256 over the
/// preimage costs as much as the verify it would save.
inline std::string verify_key(std::uint32_t author, BytesView preimage,
                              BytesView sig) {
  std::string k;
  k.reserve(8 + preimage.size() + sig.size());
  for (int i = 0; i < 4; ++i) {
    k.push_back(static_cast<char>(author >> (8 * i)));
  }
  const auto plen = static_cast<std::uint32_t>(preimage.size());
  for (int i = 0; i < 4; ++i) {
    k.push_back(static_cast<char>(plen >> (8 * i)));
  }
  k.append(preimage.begin(), preimage.end());
  k.append(sig.begin(), sig.end());
  return k;
}

class VerifyMemo {
 public:
  /// Memo bound. Eviction is FIFO by insertion order, driven purely by
  /// sim-thread misses, hence deterministic.
  static constexpr std::size_t kMaxEntries = 4096;

  struct Stats {
    std::uint64_t hits = 0;    ///< verdicts answered from the memo
    std::uint64_t misses = 0;  ///< verdicts computed by `check` and stored
  };

  /// The verdict on (author, preimage, sig): the remembered one, or
  /// `check()`'s, which is then remembered. `check` must be a pure
  /// verification of exactly that triple. A `false` verdict is cached
  /// like a `true` one.
  template <typename Check>
  bool verify(std::uint32_t author, BytesView preimage, BytesView sig,
              Check&& check) {
    std::string key = verify_key(author, preimage, sig);
    if (const auto it = verdicts_.find(key); it != verdicts_.end()) {
      ++stats_.hits;
      return it->second;
    }
    ++stats_.misses;
    const bool ok = check();
    remember(std::move(key), ok);
    return ok;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return verdicts_.size(); }

 private:
  void remember(std::string key, bool verdict);

  std::unordered_map<std::string, bool> verdicts_;
  std::deque<std::string> fifo_;
  Stats stats_;
};

/// The one entry point of every verification site: through `memo` when
/// the node has one, else `check()` directly.
template <typename Check>
bool memo_verify(VerifyMemo* memo, std::uint32_t author, BytesView preimage,
                 BytesView sig, Check&& check) {
  if (memo == nullptr) return check();
  return memo->verify(author, preimage, sig, std::forward<Check>(check));
}

}  // namespace eesmr::crypto
