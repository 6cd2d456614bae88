// Registers one CPU model's single-source-shortest-path relaxation variants.
#include "variants/cpu/relax.hpp"

namespace indigo::variants::cpu {

void register_sssp(Model m) { register_relax_variants<SsspProblem>(m); }

}  // namespace indigo::variants::cpu
