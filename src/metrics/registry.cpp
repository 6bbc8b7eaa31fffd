#include "metrics/registry.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "metrics/writer.hpp"

namespace dt::metrics {

namespace {

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Unique map key for a (name, canonical-labels) series. '\x1f' (ASCII unit
/// separator) cannot appear in sane metric names or label values.
std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

/// Shortest-ish float formatting for JSON/tables (no trailing zeros): what
/// a precision-12 std::ostream prints.
std::string num(double v) { return format_number(v, 12); }

void write_labels_json(std::ostream& os, const Labels& labels) {
  os << "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ",";
    first = false;
    os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  os << "}";
}

}  // namespace

std::string labels_to_string(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += '=';
    out += v;
  }
  out += '}';
  return out;
}

const char* metric_kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge: return "gauge";
    case MetricKind::histogram: return "histogram";
  }
  return "?";
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  common::check(std::is_sorted(bounds_.begin(), bounds_.end()),
                "Histogram: bucket bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

// Edge contract: an empty histogram reports 0 for every quantile (callers
// that need to distinguish check count() — the summary table and JSONL
// writers print "-" / omit the field instead). With samples, any q <= 0
// is the observed minimum and any q >= 1 the observed maximum; a
// single-sample histogram reports that sample exactly at every q because
// the bucket interpolation below is clamped to [min_, max_].
double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = static_cast<double>(cum + counts_[i]);
    if (next >= target) {
      const double lo = i == 0 ? min_ : std::max(min_, bounds_[i - 1]);
      const double hi =
          i < bounds_.size() ? std::min(max_, bounds_[i]) : max_;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts_[i]);
      const double est = lo + frac * (hi - lo);
      return std::clamp(est, min_, max_);
    }
    cum += counts_[i];
  }
  return max_;
}

std::vector<double> Histogram::time_bounds() {
  return {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
          1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0};
}

std::vector<double> Histogram::count_bounds() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
}

// ---- MetricSnapshot --------------------------------------------------------

const MetricValue* MetricSnapshot::find(const std::string& name,
                                        const Labels& labels) const {
  const Labels want = canonical(labels);
  for (const auto& m : metrics) {
    if (m.name == name && m.labels == want) return &m;
  }
  return nullptr;
}

double MetricSnapshot::value(const std::string& name,
                             const Labels& labels) const {
  const MetricValue* m = find(name, labels);
  return m != nullptr ? m->value : 0.0;
}

double MetricSnapshot::total(const std::string& name) const {
  double t = 0.0;
  for (const auto& m : metrics) {
    if (m.name == name) t += m.value;
  }
  return t;
}

std::vector<const MetricValue*> MetricSnapshot::all(
    const std::string& name) const {
  std::vector<const MetricValue*> out;
  for (const auto& m : metrics) {
    if (m.name == name) out.push_back(&m);
  }
  return out;
}

// ---- MetricRegistry --------------------------------------------------------

MetricRegistry::Entry& MetricRegistry::resolve(const std::string& name,
                                               const Labels& labels,
                                               MetricKind kind) {
  Labels canon = canonical(labels);
  const std::string key = series_key(name, canon);
  if (const auto it = index_.find(key); it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.kind != kind) {
      common::fail("MetricRegistry: '" + name + labels_to_string(canon) +
                   "' already registered as " + metric_kind_name(e.kind));
    }
    return e;
  }
  Entry e;
  e.name = name;
  e.labels = std::move(canon);
  e.kind = kind;
  index_.emplace(key, entries_.size());
  entries_.push_back(std::move(e));
  return entries_.back();
}

Counter& MetricRegistry::counter(const std::string& name,
                                 const Labels& labels) {
  Entry& e = resolve(name, labels, MetricKind::counter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricRegistry::gauge(const std::string& name, const Labels& labels) {
  Entry& e = resolve(name, labels, MetricKind::gauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name,
                                     const Labels& labels,
                                     std::vector<double> bounds) {
  Entry& e = resolve(name, labels, MetricKind::histogram);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

MetricSnapshot MetricRegistry::snapshot() const {
  MetricSnapshot snap;
  snap.metrics.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricValue m;
    m.name = e.name;
    m.labels = e.labels;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricKind::counter: m.value = e.counter->value(); break;
      case MetricKind::gauge: m.value = e.gauge->value(); break;
      case MetricKind::histogram: {
        const Histogram& h = *e.histogram;
        m.bounds = h.bounds();
        m.bucket_counts.resize(h.bounds().size() + 1);
        for (std::size_t i = 0; i < m.bucket_counts.size(); ++i) {
          m.bucket_counts[i] = h.bucket_count(i);
        }
        m.count = h.count();
        m.sum = h.sum();
        m.min = h.count() > 0 ? h.min() : 0.0;
        m.max = h.count() > 0 ? h.max() : 0.0;
        m.p50 = h.percentile(0.50);
        m.p95 = h.percentile(0.95);
        m.p99 = h.percentile(0.99);
        m.value = h.mean();
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void MetricRegistry::write_jsonl(std::ostream& os) const {
  for (const auto& e : entries_) {
    os << R"({"name":")" << json_escape(e.name) << R"(","labels":)";
    write_labels_json(os, e.labels);
    os << R"(,"kind":")" << metric_kind_name(e.kind) << '"';
    switch (e.kind) {
      case MetricKind::counter:
        os << ",\"value\":" << num(e.counter->value());
        break;
      case MetricKind::gauge:
        os << ",\"value\":" << num(e.gauge->value());
        break;
      case MetricKind::histogram: {
        const Histogram& h = *e.histogram;
        os << ",\"count\":" << h.count() << ",\"sum\":" << num(h.sum());
        if (h.count() > 0) {
          os << ",\"min\":" << num(h.min()) << ",\"max\":" << num(h.max())
             << ",\"p50\":" << num(h.percentile(0.50))
             << ",\"p95\":" << num(h.percentile(0.95))
             << ",\"p99\":" << num(h.percentile(0.99));
        }
        os << ",\"buckets\":[";
        for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
          if (i > 0) os << ",";
          os << R"({"le":)";
          if (i < h.bounds().size()) {
            os << num(h.bounds()[i]);
          } else {
            os << R"("inf")";
          }
          os << ",\"count\":" << h.bucket_count(i) << "}";
        }
        os << "]";
        break;
      }
    }
    os << "}\n";
  }
}

void MetricRegistry::save_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) common::fail("MetricRegistry: cannot open " + path);
  write_jsonl(out);
  out.flush();
  if (!out.good()) common::fail("MetricRegistry: write failed for " + path);
}

common::Table MetricRegistry::summary_table(const std::string& title) const {
  common::Table table(title);
  table.set_header({"metric", "labels", "kind", "value", "count", "mean",
                    "min", "p50", "p95", "p99", "max"});
  for (const auto& e : entries_) {
    switch (e.kind) {
      case MetricKind::counter:
        table.add_row({e.name, labels_to_string(e.labels), "counter",
                       num(e.counter->value()), "-", "-", "-", "-", "-", "-",
                       "-"});
        break;
      case MetricKind::gauge:
        table.add_row({e.name, labels_to_string(e.labels), "gauge",
                       num(e.gauge->value()), "-", "-", "-", "-", "-", "-",
                       "-"});
        break;
      case MetricKind::histogram: {
        const Histogram& h = *e.histogram;
        const bool any = h.count() > 0;
        table.add_row({e.name, labels_to_string(e.labels), "histogram", "-",
                       std::to_string(h.count()), any ? num(h.mean()) : "-",
                       any ? num(h.min()) : "-",
                       any ? num(h.percentile(0.50)) : "-",
                       any ? num(h.percentile(0.95)) : "-",
                       any ? num(h.percentile(0.99)) : "-",
                       any ? num(h.max()) : "-"});
        break;
      }
    }
  }
  return table;
}

}  // namespace dt::metrics
