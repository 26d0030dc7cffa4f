#include "base/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace uwbams::base {

void append_fixed(std::string* out, double v, int precision) {
  // Sign, DBL_MAX's 309 integer digits, the point, then the fraction.
  constexpr int kIntegerPart = 311;
  char buf[512];
  if (precision <= static_cast<int>(sizeof buf) - kIntegerPart) {
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::fixed, precision);
    out->append(buf, r.ptr);
    return;
  }
  std::string big(static_cast<std::size_t>(kIntegerPart + precision), '\0');
  const auto r = std::to_chars(big.data(), big.data() + big.size(), v,
                               std::chars_format::fixed, precision);
  out->append(big.data(), r.ptr);
}

std::string Table::num(double v, int precision) {
  std::string s;
  append_fixed(&s, v, precision);
  return s;
}

std::string Table::sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

std::string Table::render() const {
  std::vector<std::size_t> widths;
  auto grow = [&](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  grow(header_);
  for (const auto& r : rows_) grow(r);

  auto line = [&](char c) {
    std::string s = "+";
    for (std::size_t w : widths) s += std::string(w + 2, c) + "+";
    return s + "\n";
  };
  auto fmt_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string cell = i < row.size() ? row[i] : "";
      s += " " + cell + std::string(widths[i] - cell.size(), ' ') + " |";
    }
    return s + "\n";
  };

  std::ostringstream os;
  os << title_ << "\n" << line('-');
  if (!header_.empty()) os << fmt_row(header_) << line('=');
  for (const auto& r : rows_) os << fmt_row(r);
  os << line('-');
  return os.str();
}

void Table::print() const { std::cout << render() << std::flush; }

namespace {

std::string csv_cell(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

std::string csv_row(const std::vector<std::string>& row) {
  std::string s;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) s += ',';
    s += csv_cell(row[i]);
  }
  return s + "\n";
}

}  // namespace

std::string Table::to_csv() const {
  std::string s;
  if (!header_.empty()) s += csv_row(header_);
  for (const auto& r : rows_) s += csv_row(r);
  return s;
}

void Series::add_row(double x, const std::vector<double>& row) {
  if (row.size() != labels_.size())
    throw std::invalid_argument("Series::add_row: column count mismatch");
  x_.push_back(x);
  if (cols_.size() != labels_.size()) cols_.resize(labels_.size());
  for (std::size_t i = 0; i < row.size(); ++i) cols_[i].push_back(row[i]);
}

std::string Series::render(int precision) const {
  std::ostringstream os;
  os << title_ << "\n" << x_label_;
  for (const auto& l : labels_) os << "\t" << l;
  os << "\n";
  char buf[64];
  for (std::size_t r = 0; r < x_.size(); ++r) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, x_[r]);
    os << buf;
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      std::snprintf(buf, sizeof buf, "%.*g", precision, cols_[c][r]);
      os << "\t" << buf;
    }
    os << "\n";
  }
  return os.str();
}

void Series::print(int precision) const {
  std::cout << render(precision) << std::flush;
}

std::string Series::to_csv() const {
  std::ostringstream os;
  os << csv_cell(x_label_);
  for (const auto& l : labels_) os << "," << csv_cell(l);
  os << "\n";
  char buf[64];
  for (std::size_t r = 0; r < x_.size(); ++r) {
    std::snprintf(buf, sizeof buf, "%.17g", x_[r]);
    os << buf;
    for (std::size_t c = 0; c < cols_.size(); ++c) {
      std::snprintf(buf, sizeof buf, "%.17g", cols_[c][r]);
      os << "," << buf;
    }
    os << "\n";
  }
  return os.str();
}

std::string Series::ascii_plot(int width, int height, bool log_y) const {
  if (x_.empty() || cols_.empty()) return "(empty series)\n";
  auto ty = [&](double v) {
    if (!log_y) return v;
    return std::log10(std::max(v, 1e-300));
  };
  double ymin = 1e300, ymax = -1e300;
  for (const auto& col : cols_)
    for (double v : col) {
      if (log_y && v <= 0.0) continue;
      ymin = std::min(ymin, ty(v));
      ymax = std::max(ymax, ty(v));
    }
  if (ymin > ymax) return "(no plottable data)\n";
  if (ymax - ymin < 1e-12) ymax = ymin + 1.0;
  const double xmin = x_.front(), xmax = x_.back();
  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  const char marks[] = {'*', 'o', '+', 'x', '#', '@'};
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    for (std::size_t r = 0; r < x_.size(); ++r) {
      if (log_y && cols_[c][r] <= 0.0) continue;
      const double fx = (xmax > xmin) ? (x_[r] - xmin) / (xmax - xmin) : 0.0;
      const double fy = (ty(cols_[c][r]) - ymin) / (ymax - ymin);
      const int px = std::clamp(static_cast<int>(fx * (width - 1)), 0, width - 1);
      const int py = std::clamp(static_cast<int>((1.0 - fy) * (height - 1)), 0,
                                height - 1);
      grid[static_cast<std::size_t>(py)][static_cast<std::size_t>(px)] =
          marks[c % (sizeof marks)];
    }
  }
  std::ostringstream os;
  os << title_ << "  [";
  for (std::size_t c = 0; c < labels_.size(); ++c)
    os << (c ? ", " : "") << marks[c % (sizeof marks)] << "=" << labels_[c];
  os << "]\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3g", log_y ? std::pow(10, ymax) : ymax);
  os << "  y_max=" << buf << "\n";
  for (const auto& row : grid) os << "  |" << row << "|\n";
  std::snprintf(buf, sizeof buf, "%.3g", log_y ? std::pow(10, ymin) : ymin);
  os << "  y_min=" << buf << "   x: " << xmin << " .. " << xmax << "\n";
  return os.str();
}

}  // namespace uwbams::base
