#include "common/ini.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace dt::common {

namespace {
std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}
}  // namespace

IniConfig IniConfig::parse(std::istream& in) {
  IniConfig cfg;
  std::string line;
  std::string section;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments (both styles), then whitespace. A '#' or ';' starts a
    // comment only at the beginning of the line or when preceded by
    // whitespace, so values containing the characters (URLs with
    // fragments, "a;b" tokens) survive intact.
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if ((c == '#' || c == ';') &&
          (i == 0 || std::isspace(static_cast<unsigned char>(line[i - 1])))) {
        line.erase(i);
        break;
      }
    }
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        fail("ini: unterminated section header at line " +
             std::to_string(line_no));
      }
      section = trim(line.substr(1, line.size() - 2));
      if (section.empty())
        fail("ini: empty section name at line " + std::to_string(line_no));
      cfg.values_[section];  // register even if empty
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      fail("ini: expected key = value at line " + std::to_string(line_no));
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail("ini: empty key at line " + std::to_string(line_no));
    cfg.values_[section][key] = value;
  }
  return cfg;
}

IniConfig IniConfig::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

IniConfig IniConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) fail("ini: cannot open " + path);
  return parse(in);
}

bool IniConfig::has(const std::string& section, const std::string& key) const {
  const auto sec = values_.find(section);
  return sec != values_.end() && sec->second.count(key) > 0;
}

std::string IniConfig::get(const std::string& section, const std::string& key,
                           const std::string& fallback) const {
  const auto sec = values_.find(section);
  if (sec == values_.end()) return fallback;
  const auto it = sec->second.find(key);
  return it == sec->second.end() ? fallback : it->second;
}

double IniConfig::get_double(const std::string& section,
                             const std::string& key, double fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = get(section, key);
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) fail("ini: trailing characters in number: " + v);
    return out;
  } catch (const std::invalid_argument&) {
    fail("ini: not a number: [" + section + "] " + key + " = " + v);
  } catch (const std::out_of_range&) {
    fail("ini: number out of range: [" + section + "] " + key + " = " + v);
  }
}

std::int64_t IniConfig::get_int(const std::string& section,
                                const std::string& key,
                                std::int64_t fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = get(section, key);
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(v, &pos);
    if (pos != v.size()) fail("ini: trailing characters in integer: " + v);
    return out;
  } catch (const std::invalid_argument&) {
    fail("ini: not an integer: [" + section + "] " + key + " = " + v);
  } catch (const std::out_of_range&) {
    fail("ini: integer out of range: [" + section + "] " + key + " = " + v);
  }
}

bool IniConfig::get_bool(const std::string& section, const std::string& key,
                         bool fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = lower(get(section, key));
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  fail("ini: not a boolean: [" + section + "] " + key + " = " + v);
}

std::vector<std::string> IniConfig::sections() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, _] : values_) out.push_back(name);
  return out;
}

std::vector<std::string> IniConfig::keys(const std::string& section) const {
  std::vector<std::string> out;
  const auto sec = values_.find(section);
  if (sec == values_.end()) return out;
  out.reserve(sec->second.size());
  for (const auto& [key, _] : sec->second) out.push_back(key);
  return out;
}

void IniConfig::set(const std::string& section, const std::string& key,
                    std::string value) {
  check(!section.empty(), "ini: set() with empty section");
  check(!key.empty(), "ini: set() with empty key");
  values_[section][key] = std::move(value);
}

void IniConfig::erase_section(const std::string& section) {
  values_.erase(section);
}

std::string IniConfig::canonical_dump() const {
  // values_ is a std::map of std::maps, so iteration order is already the
  // sorted canonical order.
  std::string out;
  for (const auto& [section, entries] : values_) {
    for (const auto& [key, value] : entries) {
      out += section;
      out += '\x1f';
      out += key;
      out += '\x1f';
      out += value;
      out += '\x1e';
    }
  }
  return out;
}

}  // namespace dt::common
