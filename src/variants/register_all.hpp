// Populates the global Registry with every program of the suite. Call once
// (idempotent) before selecting variants; this is the analogue of running
// the Indigo2 code generator over its full configuration.
#pragma once

#include "core/styles.hpp"

namespace indigo::variants {

/// One CPU model's programs per algorithm (src/variants/cpu); `m` is
/// Model::OpenMP or Model::CppThreads.
namespace cpu {
void register_cc(Model m);
void register_bfs(Model m);
void register_sssp(Model m);
void register_mis(Model m);
void register_pr(Model m);
void register_tc(Model m);
}  // namespace cpu

namespace vc {
void register_vcuda_cc();
void register_vcuda_bfs();
void register_vcuda_sssp();
void register_vcuda_mis();
void register_vcuda_pr();
void register_vcuda_tc();
}  // namespace vc

/// Registers all variants of all models. Safe to call more than once.
void register_all_variants();

}  // namespace indigo::variants
