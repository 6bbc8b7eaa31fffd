#include "campaign/spec.hpp"

#include <cctype>
#include <cstdint>

#include "common/error.hpp"
#include "core/experiment.hpp"

namespace dt::campaign {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Splits on `sep`, trimming fields; empty fields are dropped.
std::vector<std::string> split_list(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    std::size_t end = s.find(sep, begin);
    if (end == std::string::npos) end = s.size();
    const std::string field = trim(s.substr(begin, end - begin));
    if (!field.empty()) out.push_back(field);
    begin = end + 1;
  }
  return out;
}

/// Whitespace-split (for bundle override lists).
std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) {
      ++j;
    }
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

/// Resolves "key" or "section.key" to a schema-validated Override target.
std::pair<std::string, std::string> resolve_target(const std::string& spec,
                                                   const std::string& what) {
  const std::size_t dot = spec.find('.');
  std::string section, key;
  if (dot == std::string::npos) {
    key = spec;
    try {
      section = core::experiment_section_of(key);
    } catch (const common::Error&) {
      common::fail("campaign: " + what + " targets unknown key '" + key +
                   "' (use section.key for qualified form)");
    }
  } else {
    section = spec.substr(0, dot);
    key = spec.substr(dot + 1);
    if (!core::experiment_ini_known(section, key)) {
      common::fail("campaign: " + what + " targets unknown key [" + section +
                   "] " + key);
    }
  }
  if (section == "output" || section == "campaign")
    common::fail("campaign: " + what + " may not target [" + section + "]");
  return {section, key};
}

/// Parses one bundle override token "key=value" / "section.key=value".
Override parse_override(const std::string& token, const std::string& what) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size())
    common::fail("campaign: " + what + " entries are key=value, got: " + token);
  const auto [section, key] = resolve_target(token.substr(0, eq), what);
  return Override{section, key, token.substr(eq + 1)};
}

}  // namespace

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

std::string config_fingerprint(const common::IniConfig& ini) {
  return fnv1a_hex(std::string(kCacheEpoch) + '\x1d' + ini.canonical_dump());
}

std::string RunSpec::cell_key() const {
  std::string out;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (i) out += '|';
    out += axes[i].second;
  }
  return out;
}

std::string RunSpec::tag() const {
  std::string out = cell_key();
  if (replicate > 0) out += "#r" + std::to_string(replicate);
  return out;
}

Axis& CampaignSpec::add_axis(std::string axis_name) {
  axes.push_back(Axis{std::move(axis_name), {}});
  return axes.back();
}

Axis& CampaignSpec::add_axis(std::string axis_name, const std::string& key,
                             const std::vector<std::string>& values) {
  Axis& axis = add_axis(std::move(axis_name));
  const auto [section, k] =
      resolve_target(key, "axis '" + axis.name + "'");
  for (const std::string& v : values) {
    axis.values.push_back(AxisValue{v, {Override{section, k, v}}});
  }
  return axis;
}

CampaignSpec CampaignSpec::from_ini(const common::IniConfig& ini) {
  common::check(!ini.keys("campaign").empty(),
                "campaign: no [campaign] section in config");

  CampaignSpec spec;
  spec.name = ini.get("campaign", "name", spec.name);
  spec.replicates = static_cast<int>(
      ini.get_int("campaign", "replicates", spec.replicates));
  common::check(spec.replicates >= 1, "campaign: replicates must be >= 1");
  spec.runner_threads = static_cast<int>(
      ini.get_int("campaign", "runner_threads", spec.runner_threads));
  common::check(spec.runner_threads >= 0,
                "campaign: runner_threads must be >= 0");
  spec.cache_dir = ini.get("campaign", "cache_dir", spec.cache_dir);
  spec.output_dir = ini.get("campaign", "output_dir", spec.output_dir);
  spec.metric = ini.get("campaign", "metric", spec.metric);
  common::check(spec.metric == "auto" || spec.metric == "accuracy" ||
                    spec.metric == "throughput" || spec.metric == "duration" ||
                    spec.metric == "time_to_target" ||
                    spec.metric == "mem_peak",
                "campaign: metric must be auto, accuracy, throughput, "
                "duration, time_to_target or mem_peak");
  spec.chart_axis = ini.get("campaign", "chart_axis", spec.chart_axis);

  // Axes: `axis.<target>` keys in section order (lexicographic). Bundle
  // axes pull their per-label overrides from `value.<axis>.<label>` keys.
  for (const std::string& key : ini.keys("campaign")) {
    if (key.rfind("axis.", 0) != 0) {
      const bool known =
          key == "name" || key == "replicates" || key == "runner_threads" ||
          key == "cache_dir" || key == "output_dir" || key == "metric" ||
          key == "chart_axis" || key.rfind("value.", 0) == 0;
      if (!known) common::fail("campaign: unknown key '" + key + "'");
      continue;
    }
    const std::string target = key.substr(5);
    if (target.empty())
      common::fail("campaign: empty axis name in '" + key + "'");
    const std::vector<std::string> labels =
        split_list(ini.get("campaign", key, ""), ',');
    if (labels.empty())
      common::fail("campaign: axis '" + target + "' has no values");

    Axis axis{target, {}};
    const std::string value_prefix = "value." + target + ".";
    const bool bundled = ini.has("campaign", value_prefix + labels.front());
    for (const std::string& label : labels) {
      if (bundled) {
        if (!ini.has("campaign", value_prefix + label)) {
          common::fail("campaign: axis '" + target + "' value '" + label +
                       "' has no " + value_prefix + label + " entry");
        }
        AxisValue v{label, {}};
        for (const std::string& token :
             split_ws(ini.get("campaign", value_prefix + label, ""))) {
          v.overrides.push_back(
              parse_override(token, "axis '" + target + "'"));
        }
        if (v.overrides.empty()) {
          common::fail("campaign: axis '" + target + "' value '" + label +
                       "' resolves to no overrides");
        }
        axis.values.push_back(std::move(v));
      } else {
        const auto [section, k] =
            resolve_target(target, "axis '" + target + "'");
        axis.values.push_back(
            AxisValue{label, {Override{section, k, label}}});
      }
    }
    spec.axes.push_back(std::move(axis));
  }
  common::check(!spec.axes.empty(), "campaign: no axis.* keys");

  // Orphaned bundle-value keys (a label list that never references them)
  // are configuration typos too.
  for (const std::string& key : ini.keys("campaign")) {
    if (key.rfind("value.", 0) != 0) continue;
    const std::string rest = key.substr(6);
    bool referenced = false;
    for (const Axis& axis : spec.axes) {
      const std::string prefix = axis.name + ".";
      if (rest.rfind(prefix, 0) != 0) continue;
      const std::string label = rest.substr(prefix.size());
      for (const AxisValue& v : axis.values) {
        if (v.label == label) {
          referenced = true;
          break;
        }
      }
    }
    if (!referenced) {
      common::fail("campaign: unknown key '" + key +
                   "' (no axis value references it)");
    }
  }

  spec.base = ini;
  spec.base.erase_section("campaign");
  return spec;
}

std::size_t CampaignSpec::num_cells() const {
  std::size_t cells = 1;
  for (const Axis& axis : axes) cells *= axis.values.size();
  return cells;
}

bool CampaignSpec::functional() const {
  return base.get("experiment", "mode", "functional") == "functional";
}

std::vector<RunSpec> CampaignSpec::expand() const {
  common::check(!axes.empty(), "campaign: no axes to expand");
  common::check(replicates >= 1, "campaign: replicates must be >= 1");
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (axes[i].values.empty())
      common::fail("campaign: axis '" + axes[i].name + "' has no values");
    for (std::size_t j = 0; j < i; ++j) {
      if (axes[j].name == axes[i].name)
        common::fail("campaign: duplicate axis '" + axes[i].name + "'");
    }
    for (const AxisValue& v : axes[i].values) {
      for (const Override& o : v.overrides) {
        if (!core::experiment_ini_known(o.section, o.key)) {
          common::fail("campaign: axis '" + axes[i].name +
                       "' targets unknown key [" + o.section + "] " + o.key);
        }
        if (o.section == "output") {
          common::fail("campaign: axis '" + axes[i].name +
                       "' may not target [output]");
        }
      }
    }
  }

  std::vector<RunSpec> runs;
  runs.reserve(num_cells() * static_cast<std::size_t>(replicates));
  std::vector<std::size_t> cursor(axes.size(), 0);
  while (true) {
    for (int rep = 0; rep < replicates; ++rep) {
      RunSpec run;
      run.index = static_cast<int>(runs.size());
      run.replicate = rep;
      run.resolved = base;
      // Per-run observability outputs would collide across parallel runs
      // and must not perturb fingerprints; campaigns drop the section.
      run.resolved.erase_section("output");
      for (std::size_t a = 0; a < axes.size(); ++a) {
        const AxisValue& v = axes[a].values[cursor[a]];
        run.axes.emplace_back(axes[a].name, v.label);
        for (const Override& o : v.overrides) {
          run.resolved.set(o.section, o.key, o.value);
        }
      }
      const std::uint64_t base_seed = static_cast<std::uint64_t>(
          run.resolved.has("experiment", "seed")
              ? run.resolved.get_int("experiment", "seed", 42)
              : 42);
      run.seed = base_seed + static_cast<std::uint64_t>(rep);
      run.resolved.set("experiment", "seed", std::to_string(run.seed));
      run.fingerprint = config_fingerprint(run.resolved);
      runs.push_back(std::move(run));
    }
    // Row-major advance: last axis fastest.
    std::size_t a = axes.size();
    while (a > 0) {
      --a;
      if (++cursor[a] < axes[a].values.size()) break;
      cursor[a] = 0;
      if (a == 0) return runs;
    }
  }
}

}  // namespace dt::campaign
