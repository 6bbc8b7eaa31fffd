// Error handling: invariant checks throw dt::common::Error with a formatted
// location-carrying message. Checks are always on (they guard simulator and
// training invariants whose violation would silently corrupt results, so the
// cost is worth it even in release builds).
//
// `check` takes its message as `const char*`, so a check that passes costs a
// compare and a branch and never touches the heap. The simulator's
// per-message path runs several checks per packet, and a `std::string`
// parameter would build a temporary from the literal on every one of them.
// A message that needs formatting (numbers, shapes, names) is built only in
// its failing branch:
//
//   if (!ok) common::fail("Dense(" + name + "): bad input shape " + shape);
//
// The `file:line:` prefix names the file relative to the repository root
// (`src/core/session.cpp:79: ...`), so one failure reads the same in every
// checkout.
//
// The `std::string` overload of `check` is deprecated and kept only for
// perfbench/src/bench.cpp, which builds against these headers and still
// passes a formatted message. The repository build compiles with
// -Werror=deprecated-declarations, so under src/, tests/, bench/ and
// examples/ an eagerly formatted check message fails to compile instead of
// silently allocating.
#pragma once

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dt::common {

class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// `file` relative to the repository root: the part after the root prefix
/// that this header's own path has before "src/common/error.hpp".
/// Unchanged when `file` lies outside that root.
constexpr std::string_view repo_relative(std::string_view file) {
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view tail = "src/common/error.hpp";
  constexpr std::string_view root =
      self.ends_with(tail) ? self.substr(0, self.size() - tail.size()) : "";
  return !root.empty() && file.starts_with(root) ? file.substr(root.size())
                                                 : file;
}

[[noreturn]] inline void fail(
    const std::string& message,
    std::source_location loc = std::source_location::current()) {
  std::ostringstream os;
  os << repo_relative(loc.file_name()) << ':' << loc.line() << ": "
     << message;
  throw Error(os.str());
}

/// Throws dt::common::Error when `condition` is false.
inline void check(bool condition, const char* message,
                  std::source_location loc = std::source_location::current()) {
  if (!condition) fail(message, loc);
}

[[deprecated("build the message in the failing branch: if (!c) fail(...)")]]
inline void check(bool condition, const std::string& message,
                  std::source_location loc = std::source_location::current()) {
  if (!condition) fail(message, loc);
}

}  // namespace dt::common
