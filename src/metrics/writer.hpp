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
//
// Most numbers an export prints repeat the last one printed at the same
// site; a NumberMemo turns such a repeat into a copy of the text.
#pragma once

#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

  /// The last number one call site printed at the default precision.
  class NumberMemo {
    friend class ChunkWriter;
    std::uint64_t bits_ = 0;
    std::uint8_t len_ = 0;  // 0: empty (every formatted number is nonempty)
    char text_[23] = {};    // precision-6 text is at most 13 chars
  };

  /// `v` as number(v) prints it, reusing `memo`'s text when `v` has the
  /// bit pattern printed last through it (so 0.0 and -0.0, or two NaN
  /// payloads, never share text).
  void number(double v, NumberMemo& memo) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (memo.len_ == 0 || memo.bits_ != bits) remember(v, bits, memo);
    static_assert(sizeof(NumberMemo::text_) <= kMaxNumberChars);
    reserve_number();  // room for all of text_: a constant-size copy
    std::memcpy(buf_.get() + len_, memo.text_, sizeof(memo.text_));
    len_ += memo.len_;
  }

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
  /// Formats `v` into `memo`, keyed by `bits`.
  static void remember(double v, std::uint64_t bits, NumberMemo& memo);

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
};

}  // namespace dt::metrics
