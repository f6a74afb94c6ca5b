// Basic byte-buffer vocabulary types shared by every module.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eesmr {

/// Owned byte buffer. All wire formats, hashes and signatures use this.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning read-only view over bytes.
using BytesView = std::span<const std::uint8_t>;

/// Refcounted immutable byte buffer. The zero-copy currency of the
/// network layer: a frame is materialized once at the sender and every
/// scheduled delivery — including flood re-forwards — captures a
/// refcount instead of copying the payload. Immutability is what makes
/// sharing safe: no holder may mutate the buffer after publication.
using SharedBytes = std::shared_ptr<const Bytes>;

/// Take ownership of `b` as an immutable shared buffer.
inline SharedBytes share_bytes(Bytes&& b) {
  return std::make_shared<const Bytes>(std::move(b));
}

/// Copy a view into a fresh immutable shared buffer.
inline SharedBytes share_bytes(BytesView v) {
  return std::make_shared<const Bytes>(v.begin(), v.end());
}

/// View over a shared buffer (empty view for null).
inline BytesView view_of(const SharedBytes& s) {
  return s ? BytesView(*s) : BytesView{};
}

/// Build an owned buffer from a view.
inline Bytes to_bytes(BytesView v) { return Bytes(v.begin(), v.end()); }

/// Build an owned buffer from a UTF-8 string (no terminator).
inline Bytes to_bytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// Interpret a buffer as a string (for tests / examples).
inline std::string to_string(BytesView v) {
  return std::string(v.begin(), v.end());
}

/// Comparator and hasher for Bytes keys. Both view the bytes as a
/// std::string_view, whose order and hash are std::string's, so Bytes
/// keys iterate like string copies. (std::less<Bytes> orders the same
/// but trips GCC 12 -Wstringop-overread false positives at -O2.)
inline std::string_view as_chars(BytesView v) {
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const noexcept {
    return as_chars(a) < as_chars(b);
  }
};
struct BytesHasher {
  std::size_t operator()(const Bytes& b) const noexcept {
    return std::hash<std::string_view>{}(as_chars(b));
  }
};

/// Stamp `v` little-endian into the first min(8, size) bytes of `buf`.
/// Shared by the synthetic workload generators to keep fixed-size
/// payloads distinct.
inline void stamp_counter_le(Bytes& buf, std::uint64_t v) {
  for (std::size_t b = 0; b < 8 && b < buf.size(); ++b) {
    buf[b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

}  // namespace eesmr
