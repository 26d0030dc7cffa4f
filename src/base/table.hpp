// table.hpp — paper-style ASCII tables and data series for bench output.
//
// Every bench binary reproduces a table or figure from the paper. Table
// renders aligned ASCII tables (Table 1 / Table 2 style); Series renders
// x/y rows suitable for plotting (Fig. 4 / 5 / 6 style), with an optional
// coarse ASCII plot for at-a-glance shape checks in CI logs.
#pragma once

#include <string>
#include <vector>

namespace uwbams::base {

/// Appends v in fixed notation with `precision` digits after the point:
/// the characters printf "%.*f" prints, without printf's locale and format
/// parsing (std::to_chars fixed is specified to match it).
void append_fixed(std::string* out, double v, int precision);

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header) { header_ = std::move(header); }
  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  // Convenience: format doubles with the given precision (num: "%.*f",
  // through append_fixed; sci: "%.*e").
  static std::string num(double v, int precision = 4);
  static std::string sci(double v, int precision = 3);

  const std::string& title() const { return title_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& data_rows() const { return rows_; }

  std::string render() const;
  void print() const;  // render() to stdout
  // RFC-4180-style CSV (header row first; cells quoted when needed).
  std::string to_csv() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// A named set of y-columns over a shared x-column.
class Series {
 public:
  Series(std::string title, std::string x_label)
      : title_(std::move(title)), x_label_(std::move(x_label)) {}

  void add_column(std::string label) { labels_.push_back(std::move(label)); }
  // row.size() must equal the number of columns added.
  void add_row(double x, const std::vector<double>& row);

  std::size_t rows() const { return x_.size(); }
  const std::vector<double>& x() const { return x_; }
  const std::vector<double>& column(std::size_t i) const { return cols_.at(i); }
  const std::string& title() const { return title_; }
  const std::string& x_label() const { return x_label_; }
  const std::vector<std::string>& labels() const { return labels_; }

  std::string render(int precision = 6) const;
  // CSV with %.17g values (round-trips doubles exactly).
  std::string to_csv() const;
  void print(int precision = 6) const;
  // Coarse ASCII plot, optionally with log10 y-axis (for BER curves).
  std::string ascii_plot(int width = 64, int height = 20, bool log_y = false) const;

 private:
  std::string title_;
  std::string x_label_;
  std::vector<std::string> labels_;
  std::vector<double> x_;
  std::vector<std::vector<double>> cols_;
};

}  // namespace uwbams::base
