#include "nn/serialize.hpp"

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace dt::nn {

namespace {

constexpr char kMagicV1[8] = {'D', 'T', 'C', 'K', 'P', 'T', '0', '1'};
constexpr char kMagicV2[8] = {'D', 'T', 'C', 'K', 'P', 'T', '0', '2'};

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  common::check(is.good(), "checkpoint: truncated stream");
  return value;
}

// CRC-32 (reflected, polynomial 0xEDB88320) over the container body; the
// footer lets load_checkpoint distinguish on-disk corruption from a
// checkpoint/model mismatch.
const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0U ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::uint32_t crc32(const char* data, std::size_t len) {
  const auto& table = crc32_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

void write_body(const Sequential& model, std::ostream& os) {
  const auto& slots = model.slots();
  write_pod(os, static_cast<std::uint32_t>(slots.size()));
  for (const ParamSlot* slot : slots) {
    write_pod(os, static_cast<std::uint32_t>(slot->name.size()));
    os.write(slot->name.data(),
             static_cast<std::streamsize>(slot->name.size()));
    const auto& shape = slot->value.shape();
    write_pod(os, static_cast<std::uint32_t>(shape.size()));
    for (std::int64_t d : shape) write_pod(os, d);
    os.write(reinterpret_cast<const char*>(slot->value.data().data()),
             static_cast<std::streamsize>(slot->value.numel() *
                                          static_cast<std::int64_t>(
                                              sizeof(float))));
  }
}

void read_body(Sequential& model, std::istream& is) {
  const auto count = read_pod<std::uint32_t>(is);
  const auto& slots = model.slots();
  if (count != slots.size()) {
    common::fail("checkpoint: slot count mismatch (checkpoint " +
                 std::to_string(count) + ", model " +
                 std::to_string(slots.size()) + ")");
  }
  for (ParamSlot* slot : slots) {
    const auto name_len = read_pod<std::uint32_t>(is);
    common::check(name_len < 4096, "checkpoint: implausible name length");
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    common::check(is.good(), "checkpoint: truncated name");
    if (name != slot->name) {
      common::fail("checkpoint: slot name mismatch: expected '" + slot->name +
                   "', found '" + name + "'");
    }
    const auto rank = read_pod<std::uint32_t>(is);
    if (rank != slot->value.rank())
      common::fail("checkpoint: rank mismatch for " + name);
    for (std::size_t d = 0; d < rank; ++d) {
      const auto dim = read_pod<std::int64_t>(is);
      if (dim != slot->value.shape()[d])
        common::fail("checkpoint: shape mismatch for " + name);
    }
    is.read(reinterpret_cast<char*>(slot->value.data().data()),
            static_cast<std::streamsize>(slot->value.numel() *
                                         static_cast<std::int64_t>(
                                             sizeof(float))));
    if (!is.good())
      common::fail("checkpoint: truncated tensor data for " + name);
  }
}

}  // namespace

void save_checkpoint(const Sequential& model, std::ostream& os) {
  std::ostringstream body_os(std::ios::binary);
  write_body(model, body_os);
  const std::string body = body_os.str();
  os.write(kMagicV2, sizeof(kMagicV2));
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
  write_pod(os, crc32(body.data(), body.size()));
  common::check(os.good(), "checkpoint: write failed");
}

void save_checkpoint(const Sequential& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) common::fail("checkpoint: cannot open " + path);
  save_checkpoint(model, out);
}

void load_checkpoint(Sequential& model, std::istream& is) {
  char magic[sizeof(kMagicV2)];
  is.read(magic, sizeof(magic));
  common::check(is.good(), "checkpoint: bad magic");
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    // v1 containers carry no checksum; parse the body straight off the
    // stream for backward compatibility.
    read_body(model, is);
    return;
  }
  common::check(std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0,
                "checkpoint: bad magic");
  std::ostringstream rest_os(std::ios::binary);
  rest_os << is.rdbuf();
  const std::string rest = rest_os.str();
  common::check(rest.size() >= sizeof(std::uint32_t),
                "checkpoint: truncated stream");
  const std::size_t body_len = rest.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, rest.data() + body_len, sizeof(stored));
  common::check(crc32(rest.data(), body_len) == stored,
                "checkpoint: bad checksum");
  std::istringstream body_is(rest.substr(0, body_len), std::ios::binary);
  read_body(model, body_is);
}

void load_checkpoint(Sequential& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) common::fail("checkpoint: cannot open " + path);
  load_checkpoint(model, in);
}

}  // namespace dt::nn
