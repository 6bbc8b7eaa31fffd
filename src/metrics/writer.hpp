// Text output shared by the observer exports (trace, time-series CSV,
// metrics JSONL).
//
// ChunkWriter streams an export through one bounded buffer: text is
// appended into a fixed 1 MiB chunk that is handed to
// `std::ostream::write` whenever it fills, so an export never holds the
// whole file in memory and never goes through the per-value `operator<<`
// machinery. Numbers are formatted with std::to_chars:
//
//   - doubles with `chars_format::general` at a given precision, which the
//     standard defines as printf's `%.<precision>g` in the C locale — the
//     exact text a default-flags `std::ostream << double` prints at that
//     precision (tests/test_metrics.cpp pins the equivalence);
//   - integers in plain decimal.
#pragma once

#include <charconv>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

namespace dt::metrics {

/// `v` as `std::ostream << v` prints it at `precision` (6 is the stream
/// default) with default flags, in the C locale.
[[nodiscard]] std::string format_number(double v, int precision = 6);

/// Full JSON string escaping: quotes, backslashes and control characters
/// (track, event and metric names may carry user strings from configs).
[[nodiscard]] std::string json_escape(std::string_view s);

class ChunkWriter {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  explicit ChunkWriter(std::ostream& os);
  /// Flushes what is still buffered; check the stream afterwards.
  ~ChunkWriter() { flush(); }

  ChunkWriter(const ChunkWriter&) = delete;
  ChunkWriter& operator=(const ChunkWriter&) = delete;

  void put(char c) {
    if (len_ == kChunkBytes) flush();
    buf_[len_++] = c;
  }
  void put(std::string_view s);

  /// `v` as format_number(v, precision) would return it.
  void number(double v, int precision = 6);

  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  void integer(Int v) {
    reserve_number();
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_.get() + len_, buf_.get() + kChunkBytes, v).ptr -
        buf_.get());
  }

  /// Hands the buffered bytes to the stream.
  void flush();

 private:
  /// Longest text `number` or `integer` can produce, with headroom.
  static constexpr std::size_t kMaxNumberChars = 32;
  void reserve_number() {
    if (kChunkBytes - len_ < kMaxNumberChars) flush();
  }

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

}  // namespace dt::metrics
