// Report formatting shared by the bench binaries: figure headers, boxen +
// summary blocks, and markdown-ish matrices.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/summary.hpp"

namespace indigo::bench {

/// Prints the figure/table banner with the paper's claim being reproduced.
void print_header(const std::string& id, const std::string& title,
                  const std::string& paper_claim);

/// Prints a boxen rendering plus the numeric summary table of the samples.
void print_distribution(const std::vector<stats::NamedSample>& samples,
                        const std::string& y_label = "throughput ratio");

/// "264 KiB" / "2 MiB": a byte count in whole KiB below 1 MiB, else in
/// whole MiB (the device-memory summary lines).
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

/// Prints a labelled matrix with fixed-width numeric cells.
void print_matrix(const std::vector<std::string>& row_labels,
                  const std::vector<std::string>& col_labels,
                  const std::vector<std::vector<double>>& cells,
                  int precision = 2);

}  // namespace indigo::bench
