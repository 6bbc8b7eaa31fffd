#include "metrics/writer.hpp"

#include <cstring>
#include <ostream>

#include "common/error.hpp"

namespace dt::metrics {

namespace {

/// Highest precision a ChunkWriter number buffer is sized for: 17
/// significant digits already round-trip every double.
constexpr int kMaxPrecision = 17;

char* format_into(char* first, char* last, double v, int precision) {
  common::check(precision > 0 && precision <= kMaxPrecision,
                "format_number: precision must be in [1, 17]");
  const auto res =
      std::to_chars(first, last, v, std::chars_format::general, precision);
  common::check(res.ec == std::errc(), "format_number: buffer too small");
  return res.ptr;
}

}  // namespace

std::string format_number(double v, int precision) {
  char buf[32];
  return std::string(buf, format_into(buf, buf + sizeof(buf), v, precision));
}

std::string json_escape(std::string_view s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += hex[u >> 4];
          out += hex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

ChunkWriter::ChunkWriter(std::ostream& os)
    : os_(os), buf_(std::make_unique_for_overwrite<char[]>(kChunkBytes)) {}

void ChunkWriter::put(std::string_view s) {
  if (s.size() > kChunkBytes - len_) {
    flush();
    if (s.size() > kChunkBytes) {  // a chunk or more: pass it through
      os_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return;
    }
  }
  std::memcpy(buf_.get() + len_, s.data(), s.size());
  len_ += s.size();
}

void ChunkWriter::number(double v, int precision) {
  reserve_number();
  char* const end = buf_.get() + kChunkBytes;
  len_ = static_cast<std::size_t>(
      format_into(buf_.get() + len_, end, v, precision) - buf_.get());
}

void ChunkWriter::flush() {
  if (len_ == 0) return;
  os_.write(buf_.get(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

}  // namespace dt::metrics
