#include "src/crypto/verify_memo.hpp"

namespace eesmr::crypto {

void VerifyMemo::remember(std::string key, bool verdict) {
  fifo_.push_back(key);
  verdicts_.emplace(std::move(key), verdict);
  while (verdicts_.size() > kMaxEntries) {
    verdicts_.erase(fifo_.front());
    fifo_.pop_front();
  }
}

}  // namespace eesmr::crypto
