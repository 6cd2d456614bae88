#include "bench_util/printing.hpp"

#include <cmath>
#include <iomanip>
#include <iostream>

namespace indigo::bench {

void print_header(const std::string& id, const std::string& title,
                  const std::string& paper_claim) {
  std::cout << '\n'
            << std::string(78, '=') << '\n'
            << id << ": " << title << '\n'
            << "Paper claim: " << paper_claim << '\n'
            << std::string(78, '=') << '\n';
}

void print_distribution(const std::vector<stats::NamedSample>& samples,
                        const std::string& y_label) {
  std::cout << stats::render_boxen(samples, y_label);
  std::cout << stats::render_summary_table(samples);
}

std::string format_bytes(std::uint64_t bytes) {
  return bytes >= (1u << 20) ? std::to_string(bytes >> 20) + " MiB"
                             : std::to_string(bytes >> 10) + " KiB";
}

void print_matrix(const std::vector<std::string>& row_labels,
                  const std::vector<std::string>& col_labels,
                  const std::vector<std::vector<double>>& cells,
                  int precision) {
  std::size_t width = 8;
  for (const auto& c : col_labels) width = std::max(width, c.size() + 2);
  std::size_t row_width = 10;
  for (const auto& r : row_labels) row_width = std::max(row_width, r.size() + 1);
  std::cout << std::left << std::setw(static_cast<int>(row_width)) << "";
  for (const auto& c : col_labels) {
    std::cout << std::right << std::setw(static_cast<int>(width)) << c;
  }
  std::cout << '\n';
  for (std::size_t r = 0; r < row_labels.size(); ++r) {
    std::cout << std::left << std::setw(static_cast<int>(row_width))
              << row_labels[r];
    for (double v : cells[r]) {
      std::cout << std::right << std::setw(static_cast<int>(width));
      if (std::isnan(v)) {
        std::cout << "-";
      } else {
        std::cout << std::fixed << std::setprecision(precision) << v;
      }
    }
    std::cout << '\n';
  }
}

}  // namespace indigo::bench
