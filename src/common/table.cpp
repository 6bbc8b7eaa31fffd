#include "common/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace dt::common {

void Table::set_header(std::vector<std::string> header) {
  check(rows_.empty(), "Table::set_header must precede add_row");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  check(header_.empty() || row.size() == header_.size(),
        "Table row width mismatch");
  rows_.push_back(std::move(row));
}

namespace {

std::vector<std::size_t> column_widths(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows) {
  const std::size_t cols =
      header.empty() ? (rows.empty() ? 0 : rows.front().size())
                     : header.size();
  std::vector<std::size_t> widths(cols, 0);
  for (std::size_t c = 0; c < cols; ++c) {
    if (c < header.size()) widths[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < cols; ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

void print_rule(std::ostream& os, const std::vector<std::size_t>& widths) {
  os << '+';
  for (std::size_t w : widths) {
    for (std::size_t i = 0; i < w + 2; ++i) os << '-';
    os << '+';
  }
  os << '\n';
}

void print_row(std::ostream& os, const std::vector<std::string>& row,
               const std::vector<std::size_t>& widths) {
  os << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    const std::string& cell = c < row.size() ? row[c] : std::string{};
    os << ' ' << cell;
    for (std::size_t i = cell.size(); i < widths[c] + 1; ++i) os << ' ';
    os << '|';
  }
  os << '\n';
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::print(std::ostream& os) const {
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  const auto widths = column_widths(header_, rows_);
  if (widths.empty()) return;
  print_rule(os, widths);
  if (!header_.empty()) {
    print_row(os, header_, widths);
    print_rule(os, widths);
  }
  for (const auto& row : rows_) print_row(os, row, widths);
  print_rule(os, widths);
}

void Table::write_csv(std::ostream& os) const {
  auto emit = [&os](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& row : rows_) emit(row);
}

void Table::save_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) fail("cannot open CSV output file: " + path);
  write_csv(out);
}

void Table::write_markdown(std::ostream& os) const {
  auto md_escape = [](const std::string& field) {
    std::string out;
    for (char ch : field) {
      if (ch == '|') out += '\\';
      out += ch;
    }
    return out;
  };
  auto emit = [&](const std::vector<std::string>& row) {
    os << '|';
    for (const auto& cell : row) os << ' ' << md_escape(cell) << " |";
    os << '\n';
  };
  if (!title_.empty()) os << "## " << title_ << "\n\n";
  const std::size_t cols =
      header_.empty() ? (rows_.empty() ? 0 : rows_.front().size())
                      : header_.size();
  if (cols == 0) return;
  emit(header_.empty() ? std::vector<std::string>(cols) : header_);
  os << '|';
  for (std::size_t c = 0; c < cols; ++c) os << "---|";
  os << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::save_markdown(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) fail("cannot open markdown output file: " + path);
  write_markdown(out);
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string fmt_pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

}  // namespace dt::common
